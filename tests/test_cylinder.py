import math
import random

import mpmath
import pytest
from mpmath import mp, mpf

from isingrect import cylinder
from isingrect.brute_force import brute_force_logZ
from isingrect.cylinder import (
    EXTRA_BITS,
    apply_rows,
    build_factors,
    horizontal_rows,
    logZ_cylinder,
    orthonormalise,
    to_fixed,
    vertical_rows,
)
from isingrect.lattice import PERIODIC, CouplingGrid, HomogeneousCouplings, LatticeSpec, pm
from isingrect.numerics import DomainError, LogDet, PrecisionError, tol, working_dps
from isingrect.pfaffian import logZ_pfaffian
from isingrect.spectral import logZ_spectral

ORACLE_TOL = mpf("1e-30")


def vertical_factor(tp, tm):
    """Dense 2M x 2M vertical factor from the rows t_plus, t_minus; the
    reference for vertical_rows."""
    M = len(tp)
    V = mpmath.matrix(2 * M, 2 * M)
    for a in range(M):
        # first block row mixes downward neighbours through the seam
        V[a, a] = tp[a - 1] if a > 0 else tp[M - 1]
        if a > 0:
            V[a, M + a - 1] = tm[a - 1]
        else:
            V[0, 2 * M - 1] = -tm[M - 1]
        if a + 1 < M:
            V[M + a, a + 1] = tm[a]
        else:
            V[M + a, 0] = -tm[a]
        V[M + a, M + a] = tp[a]
    return V


def horizontal_factor(zp, zm):
    """Dense 2M x 2M horizontal factor; the reference for horizontal_rows."""
    M = len(zp)
    V = mpmath.matrix(2 * M, 2 * M)
    for a in range(M):
        V[a, a] = zp[a]
        V[M + a, M + a] = zp[a]
        V[a, M + a] = -zm[a]
        V[M + a, a] = -zm[a]
    return V


def apply_rows_mpf(rows, cols):
    """The row operations in mpf; the reference for the fixed-point kernel."""
    return [[a * x[i] + b * x[j] for a, i, b, j in rows] for x in cols]


def orthonormalise_mpf(cols):
    """Modified Gram-Schmidt in mpf, in place; the reference for the
    fixed-point kernel.  Returns sum log r_jj and the smallest |r_jj| / |x_j|."""
    log_r = mpf(0)
    kept = mpf(1)
    for j in range(len(cols)):
        v = cols[j]
        before = mpmath.fdot(v, v)
        for q in cols[:j]:
            r = mpmath.fdot(q, v)
            v = [x - r * y for x, y in zip(v, q)]
        norm = mpmath.sqrt(mpmath.fdot(v, v))
        kept = min(kept, norm / mpmath.sqrt(before))
        log_r += mpmath.log(norm)
        inv = 1 / norm
        cols[j] = [x * inv for x in v]
    return log_r, kept


def _bits():
    """The fixed-point bits of the active precision."""
    return mp.prec + EXTRA_BITS


def _reals(ints, bits):
    return [mpf((n, -bits)) for n in ints]


def _fixed(block, bits):
    return [[to_fixed(x, bits) for x in col] for col in block]


def _random_grid(L, M, seed, periodic=True):
    rng = random.Random(seed)
    spec = LatticeSpec(L, M, PERIODIC if periodic else "open")
    kh = [[mpf(rng.randint(10, 80)) / 100 if l < L - 1 else mpf(0)
           for _ in range(M)] for l in range(L)]
    kv = [[mpf(rng.randint(10, 80)) / 100 if (m < M - 1 or periodic) else mpf(0)
           for m in range(M)] for _ in range(L)]
    return CouplingGrid(spec, kh, kv)


def test_vertical_factor_interleaved_layout():
    # transposing to 2x2 blocks per site pair must give the banded picture:
    # diagonal pairs (t+, t+), bonds (m, m+1) coupled by t-, seam pair by -t-
    M = 4
    with working_dps(40):
        tvec = [mpf("0.3"), mpf("0.45"), mpf("0.6"), mpf("0.75")]
        tp = [pm(t)[0] for t in tvec]
        tm = [pm(t)[1] for t in tvec]
        V = vertical_factor(tp, tm)
        expected = mpmath.matrix(8, 8)
        expected[0, 0] = tp[3]
        expected[0, 7] = -tm[3]
        expected[7, 0] = -tm[3]
        expected[7, 7] = tp[3]
        for m in range(3):          # bond between sites m and m+1
            i, j = 2 * m + 1, 2 * m + 2
            expected[i, i] = tp[m]
            expected[j, j] = tp[m]
            expected[i, j] = tm[m]
            expected[j, i] = tm[m]
        # interleave: component b of site m sits at row 2m + b
        for i in range(8):
            for j in range(8):
                bi, mi = divmod(i, M)
                bj, mj = divmod(j, M)
                assert V[i, j] == expected[2 * mi + bi, 2 * mj + bj]


def test_boundary_column_is_identity():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 3), "0.4", "0.5")
    columns = build_factors(grid)
    last = columns[-1]
    # z = 1 on the last column: z+ = 1, z- = 0
    assert horizontal_factor(_reals(last.z_plus, last.bits),
                             _reals(last.z_minus, last.bits)) == mpmath.eye(6)
    # open vertical boundary: t = 1, so the seam entries vanish
    first = columns[0]
    Vt = vertical_factor(_reals(first.t_plus, first.bits),
                         _reals(first.t_minus, first.bits))
    assert Vt[0, 2 * 3 - 1] == 0 and Vt[3 + 2, 0] == 0


def test_factor_coefficients_are_pm_pairs():
    # the closed forms coth 2K, -1/sinh 2K, cosh 2K, -sinh 2K are the pm
    # pairs of z = tanh Kh and t = (1 - tanh Kv)/(1 + tanh Kv)
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2, PERIODIC), "0.3", "0.7")
    f = build_factors(grid)[0]
    with working_dps(40):
        z = mpmath.tanh(mpf("0.3"))
        zv = mpmath.tanh(mpf("0.7"))
        for got, want in zip(_reals((f.z_plus[0], f.z_minus[0], f.t_plus[0],
                                     f.t_minus[0]), f.bits),
                             pm(z) + pm((1 - zv) / (1 + zv))):
            assert abs(got - want) < tol(-2, 40) * abs(want)


def _random_block(rng, M):
    return [[mpf(rng.uniform(-1, 1)) for _ in range(2 * M)] for _ in range(M)]


@pytest.mark.parametrize("M", [1, 2, 3, 5, 8])
def test_row_operations_match_dense_factors(M):
    # M = 1 and odd M exercise the seam rows
    rng = random.Random(M)
    with working_dps(40):
        F = _bits()
        tp = [mpf(rng.uniform(1, 3)) for _ in range(M)]
        tm = [-mpf(rng.uniform(0, 2)) for _ in range(M)]
        zp = [mpf(rng.uniform(1, 3)) for _ in range(M)]
        zm = [-mpf(rng.uniform(0, 2)) for _ in range(M)]
        for rows, dense in (
                (vertical_rows(*_fixed((tp, tm), F)), vertical_factor(tp, tm)),
                (horizontal_rows(*_fixed((zp, zm), F)), horizontal_factor(zp, zm))):
            cols = _random_block(rng, M)
            X = mpmath.matrix(2 * M, M)
            for j in range(M):
                for i in range(2 * M):
                    X[i, j] = cols[j][i]
            want = dense * X
            got = [_reals(x, F) for x in apply_rows(rows, _fixed(cols, F), F)]
            for j in range(M):
                for i in range(2 * M):
                    assert abs(got[j][i] - want[i, j]) < tol(-8, 40)


def _check_qr(X, Q, log_r, kept):
    """Q^T Q = I, R = Q^T X upper triangular with a positive diagonal,
    X = Q R and sum log r_jj = log_r, each to tol(-8, 40)."""
    M = len(X)
    assert 0 < kept <= 1
    log_diag = mpf(0)
    for j in range(M):
        residual = X[j][:]
        for k in range(M):
            # Q^T Q = I
            g = mpmath.fdot(Q[j], Q[k])
            assert abs(g - (1 if j == k else 0)) < tol(-8, 40)
            # R = Q^T X is upper triangular with a positive diagonal
            r = mpmath.fdot(Q[k], X[j])
            if k > j:
                assert abs(r) < tol(-8, 40)
            elif k == j:
                assert r > 0
                log_diag += mpmath.log(r)
            residual = [x - r * q for x, q in zip(residual, Q[k])]
        # X = Q R
        assert max(abs(x) for x in residual) < tol(-8, 40)
    assert abs(log_diag - log_r) < tol(-6, 40)


@pytest.mark.parametrize("M", [1, 3, 6])
def test_orthonormalise_is_qr_with_positive_diagonal(M):
    rng = random.Random(10 + M)
    with working_dps(40):
        F = _bits()
        Xf = _fixed(_random_block(rng, M), F)
        X = [_reals(c, F) for c in Xf]
        Qf = [c[:] for c in Xf]
        log_r, kept = orthonormalise(Qf, F)
        _check_qr(X, [_reals(c, F) for c in Qf], log_r, kept)


@pytest.mark.parametrize("M", [2, 5, 8])
def test_fixed_point_kernels_match_mpf_references(M):
    # one column's factors and Gram-Schmidt on a random block, by the int
    # kernels and by the mpf ones on the same rounded inputs
    rng = random.Random(30 + M)
    with working_dps(40):
        F = _bits()
        coef = [[to_fixed(mpf(rng.uniform(lo, hi)), F) for _ in range(M)]
                for lo, hi in ((1, 3), (-2, 0), (1, 3), (-2, 0))]
        Xf = _fixed(_random_block(rng, M), F)
        X = [_reals(c, F) for c in Xf]
        for rows in (vertical_rows(*coef[:2]), horizontal_rows(*coef[2:])):
            got = apply_rows(rows, Xf, F)
            want = apply_rows_mpf([(mpf((a, -F)), i, mpf((b, -F)), j)
                                   for a, i, b, j in rows], X)
            for g, w in zip(got, want):
                # the inputs are binary64 values, so the mpf reference is
                # exact and the kernel is one rounding away from it
                assert all(abs(mpf((x, -F)) - y) <= mpmath.ldexp(1, -F)
                           for x, y in zip(g, w))
        Q = [c[:] for c in X]
        log_r, kept = orthonormalise_mpf(Q)
        log_r_f, kept_f = orthonormalise(Xf, F)
        assert abs(log_r_f - log_r) < tol(-8, 40)
        assert abs(kept_f - kept) < tol(-8, 40)
        for qf, q in zip(Xf, Q):
            assert all(abs(mpf((x, -F)) - y) < tol(-8, 40) for x, y in zip(qf, q))


@pytest.mark.parametrize("scale", ["1e-12", "1e-40", "1e-70"])
def test_small_column_is_right_or_raises(scale):
    # a column far below 1 before Gram-Schmidt carries absolute rounding
    # errors that are large beside it; the certificate must charge for them,
    # so that every digit it claims is right
    M = 4
    rng = random.Random(7)
    with working_dps(40):
        F = _bits()
        block = _random_block(rng, M)
        block[2] = [x * mpf(scale) for x in block[2]]
        Xf = _fixed(block, F)
        X = [_reals(c, F) for c in Xf]
        Qf = [c[:] for c in Xf]
        try:
            log_r, kept = orthonormalise(Qf, F)
        except PrecisionError:
            return
        with working_dps(120):
            Q = [c[:] for c in X]
            log_r_ref, _ = orthonormalise_mpf(Q)
        # logZ_cylinder raises below 1e-10, but the bound holds either way
        claimed = mpf(10) ** -mp.dps / kept
        assert abs(log_r - log_r_ref) < claimed
        for qf, q in zip(Qf, Q):
            assert all(abs(mpf((x, -F)) - y) < claimed for x, y in zip(qf, q))


@pytest.mark.parametrize("L,M,Kh,Kv,periodic", [
    (2, 2, "0.3", "0.3", False),
    (2, 2, "0.5", "0.25", True),
    (3, 4, "0.2", "0.6", False),
    (1, 3, "0.5", "0.45", True),   # odd M, single column
    (2, 3, "0.45", "0.45", False),  # odd M, open
])
def test_matches_oracle(L, M, Kh, Kv, periodic):
    spec = LatticeSpec(L, M, PERIODIC if periodic else "open")
    grid = CouplingGrid.from_scalars(spec, Kh, Kv)
    a = logZ_cylinder(grid)
    b = brute_force_logZ(grid).logZ
    assert abs(a - b) < ORACLE_TOL * abs(b)


def test_disorder_matches_pfaffian():
    grid = _random_grid(3, 4, seed=21)
    a = logZ_cylinder(grid)
    b = logZ_pfaffian(grid)
    assert abs(a - b) < ORACLE_TOL * abs(b)


def _spectral_logZ(L, M, K, digits):
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        return logZ_spectral(L, M, hom.z, hom.t, digits)


def _count_orthonormalise(monkeypatch):
    """Wrap cylinder.orthonormalise; the returned list holds the span of
    each call."""
    calls = []
    real = cylinder.orthonormalise

    def counted(cols, bits, span=1, growth=0):
        calls.append(span)
        return real(cols, bits, span, growth)

    monkeypatch.setattr(cylinder, "orthonormalise", counted)
    return calls


@pytest.mark.parametrize("L,M,K", [
    (64, 16, "0.2"),
    (64, 16, "0.35"),
    (48, 12, "0.35"),   # off by a relative 3.5e-28 before
    (32, 8, "1"),       # off by a relative 2e-23 before
    (56, 8, "1"),       # raised PrecisionError before
])
def test_long_cylinder_matches_spectral(L, M, K, monkeypatch):
    # Gram-Schmidt runs once a span's growth bound fills the spare bits,
    # not after every column
    digits = 40
    calls = _count_orthonormalise(monkeypatch)
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K, digits)
    a = logZ_cylinder(grid, digits)
    assert len(calls) <= L / 3
    b = _spectral_logZ(L, M, K, 120)
    assert abs(a - b) < tol(2, digits) * abs(b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_per_bond_cylinder_is_right_to_every_digit(seed, monkeypatch):
    # spans of several columns on per-bond couplings, two of them strong:
    # the growth bound, not the couplings, decides where Gram-Schmidt runs
    digits = 40
    rng = random.Random(seed)
    L, M = 24, 4

    def K():
        return f"{math.exp(rng.uniform(math.log(0.05), 0)):.6g}"

    Kh = [[K() if l < L - 1 else "0" for _ in range(M)] for l in range(L)]
    Kv = [[K() for _ in range(M)] for _ in range(L)]
    for _ in range(2):
        Kv[rng.randrange(L)][rng.randrange(M)] = "5"
    spec = LatticeSpec(L, M, PERIODIC)
    calls = _count_orthonormalise(monkeypatch)
    a = logZ_cylinder(CouplingGrid(spec, Kh, Kv, digits), digits)
    assert len(calls) < L
    assert max(calls) > 1
    b = logZ_pfaffian(CouplingGrid(spec, Kh, Kv, 100), 100)
    assert abs(a - b) < tol(-1, digits) * abs(b)


def test_span_of_one_column_is_charged_as_before():
    # the carried-rounding term is zero on a span of one column, whatever
    # its growth bound, and charges a small column more on a long span
    M = 3
    rng = random.Random(4)
    with working_dps(40):
        F = mp.prec + 2 * EXTRA_BITS
        block = _random_block(rng, M)
        block[1] = [x * mpf("1e-9") for x in block[1]]
        Xf = _fixed(block, F)
        plain = orthonormalise([c[:] for c in Xf], F)
        assert orthonormalise([c[:] for c in Xf], F, 1, 55.0) == plain
        _, kept = orthonormalise([c[:] for c in Xf], F, 8, float(EXTRA_BITS))
        assert kept < plain[1]


def _right_or_raises(spec, Kh, Kv, digits=40):
    """logZ_cylinder matches the Pfaffian at 150 digits, or raises PrecisionError."""
    try:
        a = logZ_cylinder(CouplingGrid(spec, Kh, Kv, digits), digits)
    except PrecisionError:
        return
    b = logZ_pfaffian(CouplingGrid(spec, Kh, Kv, 150), 150)
    assert abs(a - b) < tol(2, digits) * abs(b)


def _mixed_grid(rng):
    """A random per-bond grid up to 6x5, open or periodic; its couplings are
    log-uniform between 2e-5 and 200, within a factor 1000 of each other."""
    L, M = rng.randint(1, 6), rng.randint(1, 5)
    periodic = rng.random() < 0.5
    lo = math.exp(rng.uniform(math.log(2e-5), math.log(0.2)))

    def K():
        return f"{lo * 1000 ** rng.random():.6g}"

    Kh = [[K() if l < L - 1 else "0" for _ in range(M)] for l in range(L)]
    Kv = [[K() if m < M - 1 or periodic else "0" for m in range(M)] for _ in range(L)]
    return LatticeSpec(L, M, PERIODIC if periodic else "open"), Kh, Kv


def test_mixed_scale_grids_are_right_to_every_digit_or_raise():
    # 40 digits are printed; a value must agree with the Pfaffian at 150
    # digits to better than half a unit in the last of them
    digits = 40
    rng = random.Random(5)
    returned = 0
    for _ in range(40):
        spec, Kh, Kv = _mixed_grid(rng)
        try:
            a = logZ_cylinder(CouplingGrid(spec, Kh, Kv, digits), digits)
        except PrecisionError:
            continue
        returned += 1
        b = logZ_pfaffian(CouplingGrid(spec, Kh, Kv, 150), 150)
        assert abs(a - b) < tol(-1, digits) * abs(b), (spec, Kh, Kv)
    # the draws reach the strong couplings that raise, but most return
    assert 30 <= returned < 40


def test_pfaffian_on_mixed_scale_grids_is_right_to_every_digit():
    # the same draws as above: the Pfaffian at 40 digits must agree with
    # itself at 150 digits to better than half a unit in the 40th digit
    digits = 40
    rng = random.Random(5)
    for _ in range(60):
        spec, Kh, Kv = _mixed_grid(rng)
        a = logZ_pfaffian(CouplingGrid(spec, Kh, Kv, digits), digits)
        b = logZ_pfaffian(CouplingGrid(spec, Kh, Kv, 150), 150)
        assert abs(a - b) < tol(-1, digits) * abs(b), (spec, Kh, Kv)


@pytest.mark.parametrize("L,M,K", [(8, 4, "10"), (8, 4, "50"), (3, 4, "50")])
def test_large_coupling_is_right_or_raises(L, M, K):
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K)
    _right_or_raises(grid.spec, grid.Kh, grid.Kv)


def test_mixed_strong_bonds_are_right_or_raise():
    # the Kv = 20 bond swamps the other rows of the block; Gram-Schmidt then
    # cancels 16 digits, and without the certificate the route returns a
    # value off by a relative 5e-37
    _right_or_raises(LatticeSpec(2, 2, PERIODIC), [["1", "2"], ["0", "0"]],
                     [["0.5", "1"], ["0.5", "20"]])


def test_corner_pivot_cancellation_raises(monkeypatch):
    # a corner whose pivots cancelled more than the guard digits must not
    # come back as a value
    real = cylinder.log_abs_det

    def cancelled(C):
        ld, s = real(C)
        return LogDet(ld, s, mpf("1e-11"))

    monkeypatch.setattr(cylinder, "log_abs_det", cancelled)
    with pytest.raises(PrecisionError, match="cancellation"):
        logZ_cylinder(_random_grid(3, 4, seed=21))


def test_zero_horizontal_rejected():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "0", "0.4")
    with pytest.raises(DomainError, match="C2"):
        logZ_cylinder(grid)


def test_negative_coupling_rejected():
    grid = CouplingGrid.from_scalars(LatticeSpec(2, 2), "-0.3", "0.4")
    with pytest.raises(DomainError):
        logZ_cylinder(grid)
