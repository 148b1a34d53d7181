import json
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from isingrect.brute_force import MAX_COLUMN, brute_force_logZ

from isingrect.cli import main
from isingrect.lattice import CouplingGrid, LatticeSpec
from isingrect.numerics import working_dps
from isingrect.pfaffian import logZ_pfaffian


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_spectral_smoke(capsys):
    code, out, _ = run(capsys, "eval", "--path", "spectral",
                       "-L", "8", "-M", "8", "--Kh", "0.3", "--Kv", "0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("Kh,Kv,L,M,logZ,F,")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert mpf(cells[4]) > 0 and mpf(cells[5]) < 0


def test_eval_oracle_guard(capsys):
    n = str(MAX_COLUMN + 1)
    code, _, err = run(capsys, "eval", "--path", "oracle",
                       "-L", n, "-M", n, "--Kh", "0.3", "--Kv", "0.3")
    assert code == 2
    assert f"columns of {MAX_COLUMN} sites" in err


def test_eval_oracle_past_24_sites(capsys):
    code, out, _ = run(capsys, "eval", "--path", "oracle",
                       "-L", "6", "-M", "6", "--Kh", "0.3", "--Kv", "0.45")
    assert code == 0
    with working_dps(40):
        logZ = mpf(out.strip().split("\n")[1].split(",")[4])
        direct = logZ_pfaffian(CouplingGrid.from_scalars(LatticeSpec(6, 6), "0.3", "0.45"))
        assert abs(logZ - direct) < mpf("1e-38") * abs(direct)


def test_eval_grid_matches_pfaffian(capsys, tmp_path):
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0.25", "0.5")
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    code, out, _ = run(capsys, "eval", "--path", "tm", "--grid", str(path))
    assert code == 0
    with working_dps(40):
        logZ = mpf(out.strip().split("\n")[1].split(",")[4])
        direct = logZ_pfaffian(grid)
        assert abs(logZ - direct) < mpf("1e-30") * abs(direct)


@pytest.mark.parametrize("path", ["pfaffian", "oracle"])
def test_eval_strong_coupling_on_grid_paths(capsys, path):
    # z = tanh 60 rounds to 1, which only the spectral path cannot take
    code, out, _ = run(capsys, "eval", "--path", path, "-L", "2", "-M", "2",
                       "--Kh", "60", "--Kv", "60")
    assert code == 0
    with working_dps(40):
        logZ = mpf(out.strip().split("\n")[1].split(",")[4])
        grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "60", "60")
        direct = brute_force_logZ(grid).logZ
        assert abs(logZ - direct) < mpf("1e-38") * abs(direct)


def test_eval_strong_coupling_tm_raises_its_own_error(capsys):
    code, _, err = run(capsys, "eval", "--path", "tm", "-L", "2", "-M", "2",
                       "--Kh", "60", "--Kv", "60")
    assert code == 3
    assert "transfer-matrix" in err


def test_eval_strong_coupling_spectral_raises_precision_error(capsys):
    # K = 60 is a valid coupling whose z = tanh K rounds to 1
    code, _, err = run(capsys, "eval", "--path", "spectral", "-L", "2", "-M", "2",
                       "--Kh", "60", "--Kv", "60")
    assert code == 3
    assert "rounds to" in err


def test_eval_rejects_mixed_sources(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("ell,m,Kh,Kv\n1,1,0,0\n")
    code, _, err = run(capsys, "eval", "--grid", str(path), "-L", "2")
    assert code == 2


def test_eval_json_mirror(capsys):
    code, out, _ = run(capsys, "eval", "--path", "pfaffian", "-L", "2", "-M", "2",
                       "--Kh", "0.4", "--Kv", "0.4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1 and "logZ" in payload[0]


def test_eval_periodic_bc(capsys):
    code, out, _ = run(capsys, "eval", "--path", "pfaffian", "-L", "2", "-M", "3",
                       "--Kh", "0.4", "--Kv", "0.4", "--bc", "periodic")
    assert code == 0
    with working_dps(40):
        logZ = mpf(out.strip().split("\n")[1].split(",")[4])
        from isingrect.brute_force import brute_force_logZ
        from isingrect.lattice import LatticeSpec as LS

        grid = CouplingGrid.from_scalars(LS(2, 3, "periodic"), "0.4", "0.4")
        direct = brute_force_logZ(grid).logZ
        assert abs(logZ - direct) < mpf("1e-30") * abs(direct)


def test_eval_periodic_bc_at_60_digits(capsys):
    code, out, _ = run(capsys, "eval", "--path", "pfaffian", "-L", "2", "-M", "3",
                       "--Kh", "0.4", "--Kv", "0.4", "--bc", "periodic",
                       "--digits", "60")
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[:2] == ["0.4", "0.4"]
    with working_dps(60):
        logZ = mpf(cells[4])
        from isingrect.brute_force import brute_force_logZ

        grid = CouplingGrid.from_scalars(LatticeSpec(2, 3, "periodic"), "0.4", "0.4",
                                         digits=60)
        direct = brute_force_logZ(grid, 60).logZ
        # a grid parsed at the default 40 digits is off by about 1e-51
        assert abs(logZ - direct) < mpf("1e-55") * abs(direct)


def test_eval_grid_at_60_digits(capsys, tmp_path):
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0.3", "0.45", digits=60)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    code, out, _ = run(capsys, "eval", "--path", "tm", "--grid", str(path),
                       "--digits", "60")
    assert code == 0
    with working_dps(60):
        logZ = mpf(out.strip().split("\n")[1].split(",")[4])
        direct = logZ_pfaffian(grid, 60)
        assert abs(logZ - direct) < mpf("1e-55") * abs(direct)


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--only", "detY-decay", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload and payload[0]["status"] == "pass"


def test_validate_subset(capsys):
    code, out, err = run(capsys, "validate", "--only", "detY-vs-effspin")
    assert code == 0
    lines = out.strip().split("\n")
    assert all("detY-vs-effspin" in line for line in lines[1:])
    assert all(line.endswith("pass") for line in lines[1:])
    assert "passed" in err


def test_validate_only_matching_nothing_is_a_domain_error(capsys):
    # a typo must not turn the battery into a silent 0/0 pass
    code, out, err = run(capsys, "validate", "--only", "nonsense")
    assert code == 2
    assert out == ""
    assert "no check matches 'nonsense'" in err


def test_validate_low_precision_fails(capsys):
    # the acceptance-grade identity bounds need the default precision;
    # 15 digits must produce a visible precision failure, not wrong numbers
    code, out, _ = run(capsys, "validate", "--digits", "15",
                       "--only", "charpoly-residual-M32")
    assert code == 3
    assert "FAIL" in out


def test_sweep_single_point_matches_eval(capsys):
    code, out, _ = run(capsys, "sweep", "--sweep-K", "0.3:0.3:1", "--sizes", "4")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    code2, out2, _ = run(capsys, "eval", "--path", "spectral", "-L", "4", "-M", "4",
                         "--Kh", "0.3", "--Kv", "0.3")
    row2 = out2.strip().split("\n")[1].split(",")
    with working_dps(40):
        for a, b in zip(row[:9], row2[:9]):
            assert abs(mpf(a) - mpf(b)) < mpf("1e-35")
        # both commands evaluate the decimal coupling itself, not its binary64
        # rounding, which would agree between them and still be wrong
        for cells in (row, row2):
            for K in cells[:2]:
                assert abs(mpf(K) - mpf("0.3")) < mpf("1e-35")
    assert row[10]  # q-product columns populated away from critical


def test_sweep_parallel_determinism(tmp_path):
    # two runs of the same sweep write byte-identical files
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--sweep-K", "0.25:0.6:3", "--sizes", "4,6", "--digits", "30"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_matches_golden_file(capsys):
    # every printed digit of this sweep is frozen: tests/data/sweep_golden.csv
    # is its output before the q-products became Lambert series; a change
    # that moves any digit must explain itself and regenerate the file with
    #   isingrect sweep --sweep-K 0.2:3:15 --sizes 4,6 > tests/data/sweep_golden.csv
    golden = Path(__file__).parent / "data" / "sweep_golden.csv"
    code, out, _ = run(capsys, "sweep", "--sweep-K", "0.2:3:15", "--sizes", "4,6")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_sweep_has_no_workers_option(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--sweep-K", "0.3:0.3:1", "--sizes", "4", "--workers", "2"])


def test_sweep_crosses_critical_coupling(capsys):
    # q-product columns stay populated on both sides of the transition
    code, out, _ = run(capsys, "sweep", "--sweep-K", "0.35:0.55:3",
                       "--sizes", "4", "--digits", "20")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert all(r[9] and r[12] for r in rows)   # q and f_c filled


def test_sweep_blanks_q_columns_just_off_critical(capsys, Kc):
    # within 1e-14 of K_c the q-products refuse for precision; the row stays
    with mpmath.mp.workdps(40):
        K = mpmath.nstr(Kc + mpf("2e-15"), 30)
    code, out, _ = run(capsys, "sweep", "--sweep-K", f"{K}:{K}:1", "--sizes", "4")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[4] and row[9:13] == ["", "", "", ""]


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--sweep-K", "oops", "--sizes", "4")
    assert code == 2


def test_eval_non_numeric_coupling(capsys):
    code, _, err = run(capsys, "eval", "--path", "pfaffian", "-L", "2", "-M", "2",
                       "--Kh", "abc", "--Kv", "0.3")
    assert code == 2
    assert err.startswith("domain error:")


def test_sweep_non_integer_size(capsys):
    code, _, err = run(capsys, "sweep", "--sweep-K", "0.3:0.3:1", "--sizes", "4,x")
    assert code == 2
    assert err.startswith("domain error:")


def test_eval_grid_non_numeric_cell(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    for cells in ("1,1,0.3,x", "1,a,0.3,0.2"):
        path.write_text("ell,m,Kh,Kv\n" + cells + "\n")
        code, _, err = run(capsys, "eval", "--path", "pfaffian", "--grid", str(path))
        assert code == 2
        assert err.startswith("domain error:")
