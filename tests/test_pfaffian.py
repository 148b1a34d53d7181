import random

import mpmath
import pytest
from mpmath import mpf

from isingrect.brute_force import brute_force_logZ
from isingrect.cylinder import logZ_cylinder
from isingrect.lattice import PERIODIC, CouplingGrid, LatticeSpec
from isingrect.numerics import DomainError, log_abs_det, nstr, working_dps
from isingrect.pfaffian import build_A, logZ_pfaffian
from references import log_det_reduced, schur_check
from test_numerics import _plain_elimination

ORACLE_TOL = mpf("1e-30")


def _random_grid(L, M, seed, periodic=False, lo=5, hi=90):
    rng = random.Random(seed)
    spec = LatticeSpec(L, M, PERIODIC if periodic else "open")
    kh = [[mpf(rng.randint(lo, hi)) / 100 if l < L - 1 else mpf(0)
           for _ in range(M)] for l in range(L)]
    kv = [[mpf(rng.randint(lo, hi)) / 100 if (m < M - 1 or periodic) else mpf(0)
           for m in range(M)] for _ in range(L)]
    return CouplingGrid(spec, kh, kv)


def test_antisymmetry_is_exact():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "0.31", "0.44")
    A = build_A(grid)
    with working_dps(40):    # negation must not re-round the entries
        for i in range(len(A)):
            for j in range(len(A)):
                assert A[i][j] == -A[j][i]


def test_site_major_band():
    # every entry lies within 4M + 1 of the diagonal (the horizontal bond),
    # and the matrix is exactly antisymmetric
    grid = _random_grid(3, 4, seed=7, periodic=True)
    A = build_A(grid)
    M = grid.spec.M
    width = max(abs(i - j) for i in range(len(A)) for j in range(len(A)) if A[i][j])
    assert width == 4 * M + 1
    with working_dps(40):
        for i in range(len(A)):
            for j in range(len(A)):
                assert A[i][j] == -A[j][i]


def test_node_order_leaves_det():
    # det A does not depend on the node order: the block-major order
    # b * N + site gives the same determinant to rounding
    grid = _random_grid(3, 3, seed=11, periodic=True)
    A = build_A(grid)
    N = grid.spec.nsites
    order = [4 * site + b for b in range(4) for site in range(N)]
    with working_dps(40):
        B = mpmath.matrix([[A[i][j] for j in order] for i in order])
        (la, sa), (lb, sb) = log_abs_det(A), log_abs_det(B)
        assert sa == sb == 1
        assert abs(la - lb) < mpf("1e-45") * (1 + abs(la))


@pytest.mark.parametrize("grid", [
    _random_grid(3, 4, seed=3, periodic=True),          # 48 x 48
    _random_grid(2, 4, seed=5, lo=-70, hi=70),           # 32 x 32
], ids=["3x4-periodic", "2x4-negative"])
def test_log_abs_det_of_kasteleyn_matrix_is_plain_elimination(grid):
    # the banded kernel on build_A's rows gives the bits of the dense loop:
    # log, sign and pivot ratio
    A = build_A(grid)
    with working_dps(40):
        det = log_abs_det(A)
        ref = _plain_elimination(mpmath.matrix(A))
    assert det[1] == 1
    assert (det[0], det[1], det.pivot_ratio) == (ref[0], ref[1], ref.pivot_ratio)


GOLDEN = [
    (6, 6, False, 61, "33.21998071637803615298972486530427866282"),
    (6, 6, True, 62, "34.77947087442330488366407631565362509806"),
    (8, 8, False, 81, "59.89518355172419285242131741097569685072"),
]


# the Pfaffian cases keep the bare ids; the cylinder's carry a prefix
@pytest.mark.parametrize("route,L,M,periodic,seed,printed", [
    pytest.param(route, *case, id=prefix + "-".join(map(str, case)))
    for route, prefix in ((logZ_pfaffian, ""), (logZ_cylinder, "cylinder-"))
    for case in GOLDEN
])
def test_printed_digits_are_golden(route, L, M, periodic, seed, printed):
    # the 40 digits that the Pfaffian's elimination through mpf operators on
    # an mpmath.matrix printed for these grids; the cylinder prints them too
    grid = _random_grid(L, M, seed, periodic)
    assert nstr(route(grid, 40), 40) == printed


def test_free_limit():
    grid = CouplingGrid.from_scalars(LatticeSpec(1, 2), "0", "0")
    A = build_A(grid)
    with working_dps(40):
        ld, s = log_abs_det(A)
        assert s == 1 and abs(ld) < mpf("1e-38")      # det of the bare skeleton is 1
        assert abs(logZ_pfaffian(grid) - 2 * mpmath.log(2)) < mpf("1e-38")


@pytest.mark.parametrize("L,M,Kh,Kv", [
    (2, 2, "0.3", "0.3"),
    (3, 4, "0.2", "0.6"),
    (4, 4, "0.7", "0.7"),
    (1, 4, "0.5", "0.5"),
])
def test_matches_oracle_open(L, M, Kh, Kv):
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M), Kh, Kv)
    a = logZ_pfaffian(grid)
    b = brute_force_logZ(grid).logZ
    assert abs(a - b) < ORACLE_TOL * abs(b)


def test_matches_oracle_periodic_random():
    grid = _random_grid(3, 4, seed=3, periodic=True)
    a = logZ_pfaffian(grid)
    b = brute_force_logZ(grid).logZ
    assert abs(a - b) < ORACLE_TOL * abs(b)


def test_matches_oracle_negative_couplings():
    grid = _random_grid(2, 4, seed=5, lo=-70, hi=70)
    a = logZ_pfaffian(grid)
    b = brute_force_logZ(grid).logZ
    assert abs(a - b) < ORACLE_TOL * abs(b)


def test_reduced_minor_formula_matches_dense():
    grid = _random_grid(2, 4, seed=9, periodic=True)
    with working_dps(40):
        A = build_A(grid)
        N = grid.spec.nsites
        keep = [i for i in range(4 * N) if i % 4 != 3]    # drop each site's node 3
        sub = mpmath.matrix(3 * N, 3 * N)
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                sub[a, b] = A[i][j]
        ld, s = log_abs_det(sub)
        lg, sf = log_det_reduced(grid)
        assert s == sf == 1
        assert abs(ld - lg) < mpf("1e-36") * (1 + abs(lg))


@pytest.mark.parametrize("L,M,Kh,Kv,periodic", [
    (2, 2, "0.4", "0.4", False),
    (3, 4, "0.2", "0.6", False),
    (2, 4, "0.35", "0.5", True),
])
def test_schur_factorization(L, M, Kh, Kv, periodic):
    spec = LatticeSpec(L, M, PERIODIC if periodic else "open")
    grid = CouplingGrid.from_scalars(spec, Kh, Kv)
    assert schur_check(grid) < mpf("1e-34")


def test_schur_rejects_odd_M():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 3), "0.4", "0.4")
    with pytest.raises(DomainError):
        schur_check(grid)


def test_schur_rejects_free_vertical():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "0.4", "0")
    with pytest.raises(DomainError):
        schur_check(grid)
