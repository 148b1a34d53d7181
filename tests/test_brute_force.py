import random
import subprocess
import sys

import mpmath
import pytest
from mpmath import mpf

from isingrect import brute_force
from isingrect.brute_force import MAX_COLUMN, MAX_SPREAD_BITS, brute_force_logZ
from isingrect.cylinder import logZ_cylinder
from isingrect.lattice import OPEN, PERIODIC, CouplingGrid, LatticeSpec
from isingrect.numerics import DomainError, PrecisionError, working_dps
from isingrect.pfaffian import logZ_pfaffian

TOL = mpf("1e-38")


def plain_logZ(grid, dps=100):
    """log Z by a plain sum of e^E over every spin state, at dps digits."""
    bonds = grid.bonds()
    with mpmath.mp.workdps(dps):
        total = mpf(0)
        for cfg in range(1 << grid.spec.nsites):
            E = mpf(0)
            for i, j, K in bonds:
                E += -K if (cfg >> i ^ cfg >> j) & 1 else K
            total += mpmath.exp(E)
        return mpmath.log(total)


def drawn_grid(seed, L, M, bc, lo, hi):
    """Per-bond couplings drawn uniformly from [lo, hi], to two decimals."""
    rng = random.Random(seed)

    def draw():
        return mpf(rng.randint(round(100 * lo), round(100 * hi))) / 100

    kh = [[draw() if l < L - 1 else 0 for _ in range(M)] for l in range(L)]
    kv = [[draw() if m < M - 1 or bc == PERIODIC else 0 for m in range(M)] for _ in range(L)]
    return CouplingGrid(LatticeSpec(L, M, bc), kh, kv)


def test_single_spin():
    grid = CouplingGrid.from_scalars(LatticeSpec(1, 1), "0.7", "1.3")
    res = brute_force_logZ(grid)
    assert res.nconfig == 2
    with working_dps(40):
        assert abs(res.logZ - mpmath.log(2)) < TOL


def test_two_spins_closed_form():
    # Z = 2 e^K + 2 e^-K = 4 cosh K for a single bond
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 1), "0.5", "0.9")
    with working_dps(40):
        expect = mpmath.log(4 * mpmath.cosh(mpf("0.5")))
        assert abs(brute_force_logZ(grid).logZ - expect) < TOL


def test_open_square_closed_form():
    # 2x2 open square is a 4-cycle: Z = 2 e^(4K) + 12 + 2 e^(-4K)
    K = mpf("0.3")
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), K, K)
    with working_dps(40):
        expect = mpmath.log(2 * mpmath.exp(4 * K) + 12 + 2 * mpmath.exp(-4 * K))
        assert abs(brute_force_logZ(grid).logZ - expect) < TOL


def test_ring_closed_form():
    # a periodic 3-site column is the 1D ring: Z = (2 cosh K)^3 + (2 sinh K)^3
    K = mpf("0.45")
    grid = CouplingGrid.from_scalars(LatticeSpec(1, 3, PERIODIC), "0", K)
    with working_dps(40):
        expect = mpmath.log((2 * mpmath.cosh(K)) ** 3 + (2 * mpmath.sinh(K)) ** 3)
        assert abs(brute_force_logZ(grid).logZ - expect) < TOL


def test_free_spins():
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 4), "0", "0")
    with working_dps(40):
        assert abs(brute_force_logZ(grid).logZ - 12 * mpmath.log(2)) < TOL


PLAIN_CASES = [
    # (L, M, bc, lowest, highest coupling); at most 12 sites
    (3, 4, OPEN, 0.1, 0.9),        # L < M: the sum runs along rows
    (4, 3, OPEN, 0.1, 0.9),        # L > M
    (2, 5, PERIODIC, 0.1, 0.9),    # a cylinder keeps its ring as the column
    (4, 3, PERIODIC, -0.9, 0.9),
    (1, 12, OPEN, -1, 1),          # chains, both ways round
    (12, 1, OPEN, -1, 1),
    (3, 3, OPEN, -1.5, 1.5),
    (3, 2, PERIODIC, -2, 2),       # two bonds on each pair of a two-site ring
    (3, 1, PERIODIC, -2, 2),       # a one-site ring: each site bonds to itself
    (3, 3, PERIODIC, -50, 50),     # strong and mixed sign
    (2, 6, OPEN, -50, 50),
    (4, 3, PERIODIC, -50, 50),
]


@pytest.mark.parametrize("L, M, bc, lo, hi", PLAIN_CASES,
                         ids=[f"{c[0]}x{c[1]}-{c[2]}-{c[3]}:{c[4]}" for c in PLAIN_CASES])
def test_matches_plain_enumeration(L, M, bc, lo, hi):
    grid = drawn_grid(L * 100 + M, L, M, bc, lo, hi)
    res = brute_force_logZ(grid)
    ref = plain_logZ(grid)
    with working_dps(40):
        assert abs(res.logZ - ref) < TOL


def test_certificate_widens_a_short_sum(monkeypatch):
    # a first sum 16 bits wide leaves its smallest entries short of the
    # precision; the certificate sees it and sums again, wider
    grid = drawn_grid(7, 3, 3, PERIODIC, -50, 50)
    real = brute_force._transfer_sum
    runs = []

    def narrow_first(n, within, between, bits, weight):
        out = real(n, within, between, bits if runs else 16, weight)
        runs.append(out[2])
        return out

    monkeypatch.setattr(brute_force, "_transfer_sum", narrow_first)
    res = brute_force_logZ(grid)
    assert len(runs) == 2 and runs[0] < runs[1]
    ref = plain_logZ(grid)
    with working_dps(40):
        assert abs(res.logZ - ref) < TOL


def test_certificate_ceiling_raises(monkeypatch):
    # a sum whose smallest entry never gains bits is refused, not returned
    real = brute_force._transfer_sum

    def starved(*args):
        total, exponent, _, steps = real(*args)
        return total, exponent, 0, steps

    monkeypatch.setattr(brute_force, "_transfer_sum", starved)
    with pytest.raises(PrecisionError, match="MAX_SPREAD_BITS"):
        brute_force_logZ(CouplingGrid.from_scalars(LatticeSpec(2, 2), "0.3", "0.3"))


def test_couplings_past_the_spread_bound_raise():
    # e^(2K) with K = 10^4 spans about 2^57700 inside one column
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "1e4", "1e4")
    with pytest.raises(PrecisionError, match=f"MAX_SPREAD_BITS = {MAX_SPREAD_BITS}"):
        brute_force_logZ(grid)


@pytest.mark.parametrize("L, M, bc", [(6, 6, OPEN), (6, 6, PERIODIC), (8, 8, OPEN)])
def test_agrees_with_pfaffian_and_cylinder_past_24_sites(L, M, bc):
    grid = drawn_grid(L * M, L, M, bc, 0.01, 2)
    vals = [brute_force_logZ(grid).logZ, logZ_pfaffian(grid), logZ_cylinder(grid)]
    with working_dps(40):
        unit = mpf(10) ** (mpmath.floor(mpmath.log10(abs(vals[0]))) - 39)
        assert max(vals) - min(vals) < unit / 2


def test_gauge_flip_symmetry():
    # Z(K) = Z(-K) on the open rectangle (flip one sublattice)
    a = CouplingGrid.from_scalars(LatticeSpec(3, 2), "0.37", "0.78")
    b = CouplingGrid.from_scalars(LatticeSpec(3, 2), "-0.37", "-0.78")
    assert abs(brute_force_logZ(a).logZ - brute_force_logZ(b).logZ) < TOL


def test_random_grid_matches_half_enumeration():
    # global spin-flip symmetry: fixing one spin and doubling reproduces log Z
    rng = random.Random(11)
    L, M = 2, 3
    spec = LatticeSpec(L, M)
    kh = [[mpf(rng.randint(-60, 90)) / 100 if l < L - 1 else mpf(0)
           for _ in range(M)] for l in range(L)]
    kv = [[mpf(rng.randint(-60, 90)) / 100 if m < M - 1 else mpf(0)
           for m in range(M)] for _ in range(L)]
    grid = CouplingGrid(spec, kh, kv)
    res = brute_force_logZ(grid)
    with working_dps(40):
        bonds = grid.bonds()
        total = mpf(0)
        n = spec.nsites
        for cfg in range(2 ** (n - 1)):  # spin 0 fixed up
            spins = [1] + [1 - 2 * ((cfg >> k) & 1) for k in range(n - 1)]
            E = mpf(0)
            for i, j, K in bonds:
                E += K * spins[i] * spins[j]
            total += mpmath.exp(E)
        assert abs(res.logZ - mpmath.log(2 * total)) < TOL


def test_entropy_lower_bound():
    # Z >= 2^(LM) exp(-sum |K|), saturated only in the free limit
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 3), "0.8", "0.2")
    with working_dps(40):
        total_K = sum(abs(K) for _, _, K in grid.bonds())
        bound = 9 * mpmath.log(2) - total_K
        assert brute_force_logZ(grid).logZ > bound
        free = CouplingGrid.from_scalars(LatticeSpec(3, 3), "0", "0")
        assert abs(brute_force_logZ(free).logZ - 9 * mpmath.log(2)) < TOL


@pytest.mark.parametrize("L, M, bc", [
    (MAX_COLUMN + 1, MAX_COLUMN + 1, OPEN),
    (2, MAX_COLUMN + 1, PERIODIC),          # a cylinder's column is its ring
    (60, 60, OPEN),                          # 2^60 entries: must fail before allocating
])
def test_column_bound(L, M, bc):
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M, bc), "0.1", "0.1")
    with pytest.raises(DomainError, match=f"columns of {MAX_COLUMN} sites"):
        brute_force_logZ(grid)


def test_long_open_strip_runs_along_its_short_side():
    # 2x40 open: 80 sites, but columns of 2
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 40), "0.3", "0.5")
    with working_dps(40):
        ref = logZ_pfaffian(grid)
        assert abs(brute_force_logZ(grid).logZ - ref) < TOL


def test_import_leaves_numpy_unloaded():
    # nothing in the package imports numpy, the oracle included
    code = ("import sys, isingrect\n"
            "g = isingrect.CouplingGrid.from_scalars(isingrect.LatticeSpec(4, 4), '0.3', '0.3')\n"
            "isingrect.brute_force_logZ(g)\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_oracle_result_pickles_and_replaces():
    import dataclasses
    import pickle

    grid = CouplingGrid.from_scalars(LatticeSpec(2, 3), "0.3", "0.4")
    res = brute_force_logZ(grid)
    assert not hasattr(res, "__dict__")
    assert pickle.loads(pickle.dumps(res)) == res
    moved = dataclasses.replace(res, logZ=res.logZ + 1)
    assert (moved.nconfig, moved.digits) == (res.nconfig, res.digits)
    assert moved.logZ - res.logZ == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.logZ = mpf(0)
