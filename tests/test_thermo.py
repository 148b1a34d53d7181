import mpmath
import pytest
from mpmath import mpf

from isingrect.brute_force import brute_force_logZ
from isingrect.lattice import CouplingGrid, HomogeneousCouplings, LatticeSpec
from isingrect.numerics import DomainError, log_abs_det, working_dps
from isingrect.spectral import find_modes, residual_system
from isingrect.cli import main
from isingrect.thermo import CSV_COLUMNS, casimir_force_strip, extract_corner, report
from isingrect.validate import casimir_force_fd


def test_report_identity_and_oracle():
    with working_dps(40):
        rep = report(4, 4, "0.3", "0.3")
        assert abs(rep.F - rep.F_strip - rep.F_strip_res) < mpf("1e-40") * abs(rep.F)
        grid = CouplingGrid.from_scalars(LatticeSpec(4, 4), "0.3", "0.3")
        oracle = brute_force_logZ(grid).logZ
        assert abs(rep.logZ - oracle) < mpf("1e-30") * abs(oracle)
        assert abs(rep.F + oracle) < mpf("1e-30") * abs(oracle)


def test_result_records_hold_no_instance_dict():
    # a sweep keeps one report and one set of pieces per row
    from isingrect.qseries import free_energy_pieces
    assert not hasattr(report(4, 4, "0.3", "0.3"), "__dict__")
    assert not hasattr(free_energy_pieces("0.3"), "__dict__")


def test_report_long_strip_residual_vanishes():
    with working_dps(40):
        rep = report(120, 8, "0.3", "0.3")
        assert abs(rep.F_strip_res) < mpf("1e-20")
        assert abs(rep.casimir_strip) < mpf("1e-20")


@pytest.mark.parametrize("K,M,L", [("0.3", 8, 8), (None, 8, 8), ("0.6", 4, 6)])
def test_casimir_analytic_vs_fd(K, M, L, Kc):
    K = mpf(K) if K else Kc
    with working_dps(40):
        an = casimir_force_strip(L, M, K, K)
        fd = casimir_force_fd(L, M, K, K)
        assert abs(an - fd) < mpf("1e-6") * abs(an)
        # tighter difference step pins the derivative much harder
        fd2 = casimir_force_fd(L, M, K, K, dL=mpf("1e-12"))
        assert abs(an - fd2) < mpf("1e-20") * abs(an)


def _cauchy_factors(rs):
    """A_eo = w_e/(c_e - c_o) and B_oe = w_o/(c_o - c_e), w = lam_hat^-L v,
    so that Y = -A B."""
    w = [mpmath.exp(-rs.L * g) * v for g, v in zip(rs.gamma_hat, rs.v)]
    h = rs.M // 2
    A, B = mpmath.matrix(h, h), mpmath.matrix(h, h)
    for a, e in enumerate(rs.even):
        for b, o in enumerate(rs.odd):
            A[a, b] = w[e] / (rs.c[e] - rs.c[o])
            B[b, a] = w[o] / (rs.c[o] - rs.c[e])
    return A, B


def _casimir_explicit_inverse(rs, M):
    """tr[(1 + Y)^(-1) dY] / M with dense diagonal factors and an explicit
    inverse: the reference for casimir_force_strip."""
    h = M // 2
    A, B = _cauchy_factors(rs)
    Y = -(A * B)
    one_plus = Y.copy()
    for i in range(h):
        one_plus[i, i] += 1
    Ge = mpmath.matrix(h, h)
    Go = mpmath.matrix(h, h)
    for i, e in enumerate(rs.even):
        Ge[i, i] = rs.gamma_hat[e]
    for i, o in enumerate(rs.odd):
        Go[i, i] = rs.gamma_hat[o]
    dY = -Ge * Y + A * (Go * B)
    X = one_plus ** -1 * dY
    return sum(X[i, i] for i in range(h)) / M


def _residual_system(L, M, K, digits):
    hom = HomogeneousCouplings.from_K(K, K, digits)
    return residual_system(find_modes(hom.z, hom.t, M, digits), L, digits)


@pytest.mark.parametrize("L,M,K", [(16, 48, "0.2"), (24, 32, "0.4"), (8, 16, "0.6")])
def test_casimir_matches_explicit_inverse(L, M, K):
    digits = 40
    with working_dps(digits):
        rs = _residual_system(L, M, K, digits)
        ref = _casimir_explicit_inverse(rs, M)
        force = casimir_force_strip(L, M, K, K, digits, rs=rs)
        assert abs(force - ref) <= mpf(10) ** (2 - digits) * abs(ref)


@pytest.mark.parametrize("L", [8, 16, 20, 48, 64])
def test_strip_residual_keeps_relative_digits(L):
    # det(1 + Y) - 1 runs from 4e-12 (L = 8) to 2e-73 (L = 64): forming 1 + Y
    # at 50 working digits loses from 11 digits of F_strip_res to all of them,
    # and at 170 digits keeps at least 97 of them
    with working_dps(160):
        rs = _residual_system(L, 16, "0.2", 160)
        ref = -log_abs_det(mpmath.eye(8) + rs.Y)[0]
    with working_dps(40):
        rep = report(L, 16, "0.2", "0.2")
    with working_dps(160):
        assert ref != 0
        assert abs(rep.F_strip_res - ref) <= mpf(10) ** -40 * abs(ref)


def test_casimir_attractive_near_critical(Kc):
    with working_dps(40):
        force = casimir_force_strip(8, 8, Kc, Kc)
        assert force < 0


def test_corner_extraction_both_sides():
    from isingrect.qseries import free_energy_pieces

    with working_dps(40):
        for K, bound in ((mpf("0.7"), mpf("1e-10")), (mpf("0.25"), mpf("1e-20"))):
            ext = extract_corner(K, (16, 24, 32))
            pieces = free_energy_pieces(K)
            assert ext.monotone
            assert abs(ext.f_c - pieces.f_c) < bound


def test_corner_extraction_printed_convention():
    # without the erratum the ordered-phase constant keeps the two-phase log 2
    with working_dps(40):
        a = extract_corner(mpf("0.7"), (16, 24, 32), apply_errata=True)
        b = extract_corner(mpf("0.7"), (16, 24, 32), apply_errata=False)
        assert abs(a.f_c - b.f_c - mpmath.log(2)) < mpf("1e-30")


def test_corner_extraction_low_temperature_trend():
    with working_dps(40):
        ext = extract_corner(mpf("1.2"), (8, 12, 16))
        assert abs(ext.f_c) < mpf("0.05")
        ext2 = extract_corner(mpf("1.5"), (8, 12, 16))
        assert abs(ext2.f_c) < abs(ext.f_c)    # fades toward zero temperature


def test_extract_corner_input_checks():
    with pytest.raises(DomainError):
        extract_corner("0.7", (16,))
    with pytest.raises(DomainError):
        extract_corner("0.7", (15, 24, 32))


def test_csv_emission(tmp_path):
    path = tmp_path / "rows.csv"
    assert main(["eval", "--path", "spectral", "-L", "4", "-M", "4", "--Kh", "0.35",
                 "--Kv", "0.35", "--digits", "30", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[2] == "4.0" and cells[3] == "4.0"
    assert mpf(cells[4]) > 0
