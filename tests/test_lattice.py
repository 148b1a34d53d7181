import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from isingrect.lattice import (
    PERIODIC,
    CouplingGrid,
    HomogeneousCouplings,
    LatticeSpec,
    critical_coupling_isotropic,
    dual,
    pm,
)
from isingrect.cli import _eval_row, _scalar_couplings
from isingrect.cylinder import build_factors
from isingrect.numerics import DomainError, PrecisionError, working_dps
from isingrect.spectral import log_C3
from references import constants


def test_pm_basic():
    with working_dps(40):
        assert pm(mpf(1)) == (1, 0)
        p, m = pm(mpf(2))
        assert p == mpf("1.25") and m == mpf("0.75")
    with pytest.raises(DomainError):
        pm(0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 999))
def test_pm_hyperbolic_identity(k):
    with working_dps(40):
        a = mpf(k) / 100
        p, m = pm(a)
        assert abs(p * p - m * m - 1) < mpf("1e-37")
        assert abs((p + m) - a) < mpf("1e-37")


def test_dual_values():
    with working_dps(40):
        assert dual(0) == 1
        assert abs(dual(mpf("0.5")) - mpf(1) / 3) < mpf("1e-40")
        zc, Kc = critical_coupling_isotropic()
        assert abs(dual(zc) - zc) < mpf("1e-42")          # self-dual point
        assert abs(zc - (mpmath.sqrt(2) - 1)) < mpf("1e-42")
        assert abs(Kc - mpmath.atanh(zc)) < mpf("1e-42")
        assert abs(Kc - mpf("0.4406868")) < mpf("1e-7")


@settings(max_examples=40, deadline=None)
@given(st.integers(-99, 100))
def test_dual_involution(k):
    with working_dps(40):
        z = mpf(k) / 100
        assert abs(dual(dual(z)) - z) < mpf("1e-38")


def test_grid_boundary_zeros_enforced():
    spec = LatticeSpec(3, 2)
    grid = CouplingGrid.from_scalars(spec, "0.4", "0.5")
    assert all(grid.Kh[2][m] == 0 for m in range(2))
    assert all(grid.Kv[l][1] == 0 for l in range(3))
    bad = [[mpf("0.1")] * 2 for _ in range(3)]
    with pytest.raises(DomainError):
        CouplingGrid(spec, bad, [[mpf(0)] * 2 for _ in range(3)])


def test_grid_periodic_keeps_wrap():
    spec = LatticeSpec(2, 3, PERIODIC)
    grid = CouplingGrid.from_scalars(spec, "0.4", "0.5")
    assert grid.Kv[0][2] == grid.Kv[0][0] != 0


def test_grid_csv_roundtrip(tmp_path):
    spec = LatticeSpec(2, 3)
    grid = CouplingGrid.from_scalars(spec, "0.25", "0.65")
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    back = CouplingGrid.from_csv(path)
    assert back.spec == spec
    assert back.Kh == grid.Kh and back.Kv == grid.Kv


def test_grid_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,0.3,0.4\n")
    with pytest.raises(DomainError):
        CouplingGrid.from_csv(path)


def test_constants_free_limit():
    # at K = 0 only the 4^(LM) factor survives
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0", "0")
    with working_dps(40):
        c = constants(grid)
        assert abs(c["log_C0"] - 12 * mpmath.log(4)) < mpf("1e-38")


def test_constants_skips_C2_at_zero_coupling():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "0", "0.3")
    c = constants(grid)
    assert "log_C0" in c and "log_C2_dagger" not in c
    with pytest.raises(DomainError, match="C2t"):
        build_factors(grid)


def test_constants_identity_and_C3_shape():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "0.5", "0.5")
    with working_dps(40):
        c = constants(grid)  # would raise if C2t != C0*C1
        hom = HomogeneousCouplings.from_K("0.5", "0.5")
        # C3 at L = M = 2 equals z^2 (2/z-)^4 (2/(t- z-))^2, positive
        zp, zm = pm(hom.z)
        tp, tm = pm(hom.t)
        direct = hom.z ** 2 * (2 / zm) ** 4 * (2 / (tm * zm)) ** 2
        assert direct > 0
        lg = log_C3(hom.z, zm, tm, 2, 2)
        assert abs(lg - mpmath.log(abs(direct))) < mpf("1e-37")
        assert "log_C3" in c


def test_constants_identity_at_strong_coupling():
    # tanh 60 rounds to 1, so 1 - zv^2 would round to 0
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "60", "60")
    c = constants(grid)         # would raise if C2t != C0*C1
    with working_dps(40):
        assert abs(c["log_C0"] + c["log_C1"] - c["log_C2_dagger"]) \
            < mpf("1e-38") * c["log_C2_dagger"]
    with mpmath.mp.workdps(80):
        # two horizontal bonds and two vertical ones
        exact = 2 * mpmath.log(mpmath.tanh(60)) - 4 * mpmath.log(mpmath.cosh(60))
        assert abs(c["log_C1"] - exact) < mpf("1e-38") * abs(exact)
    assert "log_C3" not in c    # z - 1/z rounds to 0


@pytest.mark.parametrize("Kh,Kv", [("60", "0.3"), ("0.3", "60"), ("0.3", "1e-60")])
def test_homogeneous_rounding_to_a_boundary_is_precision(Kh, Kv):
    with pytest.raises(PrecisionError):
        HomogeneousCouplings.from_K(Kh, Kv)


@pytest.mark.parametrize("Kh,Kv", [("0", "0.3"), ("0.3", "-0.2")])
def test_homogeneous_nonpositive_coupling_is_domain(Kh, Kv):
    with pytest.raises(DomainError):
        HomogeneousCouplings.from_K(Kh, Kv)


def test_homogeneous_detection():
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0.2", "0.6")
    hom = HomogeneousCouplings.from_K(*_scalar_couplings(grid))
    with working_dps(40):
        assert abs(hom.z - mpmath.tanh(mpf("0.2"))) < mpf("1e-42")
        assert abs(hom.t - dual(mpmath.tanh(mpf("0.6")))) < mpf("1e-42")
    # disordered grid is not homogeneous, and the spectral path refuses it
    kh = [[mpf("0.2")] * 4, [mpf("0.3")] * 4, [mpf(0)] * 4]
    kv = [[mpf("0.6"), mpf("0.6"), mpf("0.6"), mpf(0)]] * 3
    disordered = CouplingGrid(LatticeSpec(3, 4), kh, kv)
    assert _scalar_couplings(disordered) == (None, None)
    periodic = CouplingGrid.from_scalars(LatticeSpec(3, 4, PERIODIC), "0.2", "0.6")
    antiferro = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0.2", "-0.6")
    for g in (disordered, periodic, antiferro):
        with pytest.raises(DomainError, match="open homogeneous rectangle"):
            _eval_row(g, "spectral", 40)


def test_homogeneous_domain():
    with pytest.raises(DomainError):
        HomogeneousCouplings(z=mpf("1.2"), t=mpf("0.5"))


@pytest.mark.parametrize("digits", [40, 60])
def test_record_pairs_are_formed_at_the_working_precision(digits):
    # from_K is called at mpmath's default precision, yet forms the pairs
    # at `digits`, bit for bit as pm and B's formula give them there
    with mpmath.mp.workdps(15):
        hom = HomogeneousCouplings.from_K("0.3", "0.5", digits)
    with working_dps(digits):
        zp, zm = pm(hom.z)
        tp, tm = pm(hom.t)
        expect = (zp, zm, tp, tm, tm * zp / zm)
    got = (hom.zp, hom.zm, hom.tp, hom.tm, hom.B)
    assert [x._mpf_ for x in got] == [x._mpf_ for x in expect]
    assert all(x._mpf_[3] > 53 for x in got)   # more bits than a 15-digit pm keeps
