import random
import subprocess
import sys

import mpmath
import pytest
from mpmath import mpf

from isingrect.brute_force import MAX_SITES, _logZ_gray, brute_force_logZ
from isingrect.lattice import PERIODIC, CouplingGrid, LatticeSpec
from isingrect.numerics import DomainError, working_dps

TOL = mpf("1e-38")


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


def test_counting_equals_gray():
    grid = CouplingGrid.from_scalars(LatticeSpec(3, 3), "0.42", "0.17")
    res = brute_force_logZ(grid)
    with working_dps(40):
        gray = _logZ_gray(grid, grid.bonds())
        assert abs(res.logZ - gray) < TOL


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


def test_site_bound():
    grid = CouplingGrid.from_scalars(LatticeSpec(5, 5), "0.1", "0.1")
    with pytest.raises(DomainError, match=str(MAX_SITES)):
        brute_force_logZ(grid)


def test_import_leaves_numpy_unloaded():
    # only the counting path uses numpy; it is imported there, on first use
    code = "import sys, isingrect; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
