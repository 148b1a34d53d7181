import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from isingrect.numerics import (
    DomainError,
    LogDet,
    bracketed_root,
    log_abs_det,
    set_precision,
    to_mpf,
    working_dps,
)


def test_to_mpf_shares_values_that_fit():
    with working_dps(40):
        x = mpf("0.3")
        assert to_mpf(x) is x
        a = to_mpf("0.45")
        assert to_mpf("0.45") is a and a == mpf("0.45")
        with pytest.raises(DomainError):
            to_mpf("abc")
    with working_dps(80):
        wide = mpf(1) / 3
        b = to_mpf("0.45")                 # parsed again at the wider precision
        assert b == mpf("0.45") and b != a
    with working_dps(40):
        narrow = to_mpf(wide)
        assert narrow is not wide and narrow == +wide


def _mat(rows):
    return mpmath.matrix(rows)


def test_log_abs_det_identity():
    with working_dps(40):
        ld, s = log_abs_det(mpmath.eye(3))
    assert ld == 0 and s == 1


def test_log_abs_det_diagonal():
    with working_dps(40):
        ld, s = log_abs_det(_mat([[2, 0], [0, 3]]))
        assert s == 1
        assert abs(ld - mpmath.log(6)) < mpf("1e-38")


def test_log_abs_det_antisymmetric_2x2():
    with working_dps(40):
        ld, s = log_abs_det(_mat([[0, 1], [-1, 0]]))
    assert s == 1 and abs(ld) < mpf("1e-38")


def test_log_abs_det_singular():
    with working_dps(40):
        ld, s = log_abs_det(_mat([[1, 2], [2, 4]]))
    assert s == 0 and ld == mpf("-inf")
    # exactly singular, but elimination leaves a pivot of rounding size
    with working_dps(40):
        ld, s = log_abs_det(_mat([[0.75, 0, -0.5], [-2.25, 0.25, 2], [-1.5, 0.5, 2]]))
    assert s == 0 and ld == mpf("-inf")
    # the residue reaches the last pivot through a multiplier that is itself
    # residue, so only the row scale shows it
    with working_dps(40):
        ld, s = log_abs_det(_mat([[0, -3, -2, -1, 0], [0, 2, 1, 0, 0], [2, 2, 2, 2, 0],
                                  [2, 0, 1, 0, 2], [-2, -1, -1, -1, 0]]))
    assert s == 0 and ld == mpf("-inf")
    # rank 3, rows and columns scaled by powers of two: the residue is far
    # above the pivot row's own scale, so only the cancelled terms show it
    B = [[-16, 9, -13, 0], [2, 0, 8, 2], [7, -4, 8, 1], [-6, 11, 1, -2]]
    rows, cols = [-30, -20, 0, 30], [0, 0, -30, 30]
    with working_dps(40):
        A = _mat([[mpmath.ldexp(B[i][j], rows[i] + cols[j]) for j in range(4)]
                  for i in range(4)])
        ld, s = log_abs_det(A)
    assert s == 0 and ld == mpf("-inf")


def _plain_elimination(A):
    # reference: dense partial pivoting with no singularity threshold; the
    # multipliers stay in U for the pivot ratio, and a row whose multiplier
    # is zero is left as it is
    n = A.rows
    U = A.copy()
    sign, logdet, ratio = 1, mpf(0), mpf(1)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: (abs(U[i, k]), -i))
        if U[piv, k] == 0:
            return LogDet(mpf("-inf"), 0, mpf(0))
        if piv != k:
            for j in range(n):
                U[k, j], U[piv, j] = U[piv, j], U[k, j]
            sign = -sign
        pval = abs(U[k, k])
        ratio = min(ratio, pval / (pval + sum(abs(U[k, p] * U[p, k]) for p in range(k))))
        if U[k, k] < 0:
            sign = -sign
        logdet += mpmath.log(pval)
        for i in range(k + 1, n):
            f = U[i, k] / U[k, k]
            U[i, k] = f
            if f:
                for j in range(k + 1, n):
                    U[i, j] -= f * U[k, j]
    return LogDet(logdet, sign, ratio)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10 ** 6))
def test_log_abs_det_matches_plain_elimination(n, seed):
    # the singularity threshold only adds comparisons: every matrix it does
    # not call singular gets the bits of plain elimination
    import random

    rng = random.Random(seed)
    with working_dps(40):
        A = mpmath.matrix([[mpf(rng.randint(-9, 9)) / 4 if rng.random() < 0.5
                            else mpf(rng.getrandbits(160)) / 2 ** 160 - mpf(1) / 2
                            for _ in range(n)] for _ in range(n)])
        ld, s = log_abs_det(A)
        if s != 0:
            assert (ld, s) == _plain_elimination(A)


def _banded(rng, n, lower, upper, density, wide=False):
    """n x n matrix with entries only for -lower <= j - i <= upper, each kept
    with the given probability; wide entries carry 300 bits, more than the
    working precision."""
    def entry():
        if wide:
            with mp.workprec(300):      # rounded on construction otherwise
                return mpf((rng.getrandbits(300) - (1 << 299), -300))
        if rng.random() < 0.5:
            return mpf(rng.randint(-9, 9)) / 4
        return mpf(rng.getrandbits(160)) / 2 ** 160 - mpf(1) / 2
    A = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(max(0, i - lower), min(n, i + upper + 1)):
            if rng.random() < density:
                A[i, j] = entry()
    return A


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_log_abs_det_skips_zeros_bit_identically(seed, wide):
    # skipping x - f*0 changes no entry, so the profile-following elimination
    # gives the bits of the dense loop: log, sign and pivot ratio
    import random

    rng = random.Random(seed)
    with working_dps(40):
        for _ in range(20):
            n = rng.randint(1, 12)
            A = _banded(rng, n, rng.randint(0, n), rng.randint(0, n),
                        rng.choice([0.3, 0.7, 1.0]), wide)
            if rng.random() < 0.3:
                # a row far down whose profile reaches back to column 0
                i = rng.randrange(n)
                A[i, 0] = mpf(rng.randint(1, 9))
            det = log_abs_det(A)
            if det[1] != 0:
                ref = _plain_elimination(A)
                assert (det[0], det[1], det.pivot_ratio) == (ref[0], ref[1], ref.pivot_ratio)


def test_log_abs_det_profile_grows_on_row_swap():
    # the pivot at step 0 is row 1, whose last column is 5; the swap brings
    # it up, and the update of row 0 extends row 0's profile to column 5
    with working_dps(40):
        A = _mat([[1, 1, 0, 0, 0, 0],
                  [3, 0, 0, 0, 0, 2],
                  [0, 1, 2, 1, 0, 0],
                  [0, 0, 1, 3, 1, 0],
                  [0, 0, 0, 1, 4, 1],
                  [0, 0, 0, 0, 1, 5]])
        det = log_abs_det(A)
        ref = _plain_elimination(A)
        assert (det[0], det[1], det.pivot_ratio) == (ref[0], ref[1], ref.pivot_ratio)
        exact = mpmath.det(A)
        assert det[1] == mpmath.sign(exact)
        assert abs(det[0] - mpmath.log(abs(exact))) < mpf("1e-45")


def test_log_abs_det_singular_banded():
    # bandwidth 2, and rows 3 and 4 are equal
    with working_dps(40):
        det = log_abs_det(_mat([[2, 1, 1, 0, 0, 0, 0],
                                [1, 3, 0, 1, 0, 0, 0],
                                [1, 0, 2, 1, 1, 0, 0],
                                [0, 0, 3, -2, 5, 0, 0],
                                [0, 0, 3, -2, 5, 0, 0],
                                [0, 0, 0, 1, 1, 2, 1],
                                [0, 0, 0, 0, 1, 1, 3]]))
    assert det == (mpf("-inf"), 0) and det.pivot_ratio == 0


def test_log_abs_det_pivot_ratio():
    with working_dps(40):
        assert log_abs_det(mpmath.eye(3)).pivot_ratio == 1
        # the second pivot is eps, left after cancelling l_21 u_12 = 1
        eps = mpf("1e-20")
        det = log_abs_det(_mat([[1, 1], [1, 1 + eps]]))
        assert abs(det.pivot_ratio - eps / (1 + eps)) < mpf("1e-25") * eps
        ld, s = det
        assert s == 1 and abs(ld - mpmath.log(eps)) < mpf("1e-25")
        assert log_abs_det(_mat([[1, 2], [2, 4]])).pivot_ratio == 0


def test_log_abs_det_requires_square():
    with pytest.raises(DomainError):
        log_abs_det(mpmath.zeros(2, 3))
    with pytest.raises(DomainError):
        log_abs_det([[1, 2], [3, 4, 5]])
    with pytest.raises(DomainError):
        log_abs_det([[1, 2, 3], [4, 5, 6]])


def test_log_abs_det_reads_rows_and_matrices_alike():
    # a list of rows (ints, floats and mpf, one of them wider than the
    # precision) gives the bits of the same entries as an mpmath.matrix
    with mp.workprec(300):
        wide = mpf(1) / 3
    rows = [[2, 0, mpf("0.3"), 0],
            [1, wide, 0, -1],
            [0, 0.5, 7, mpf(-2) / 3],
            [-3, 0, 1, 4]]
    with working_dps(40):
        a = log_abs_det(rows)
        b = log_abs_det(mpmath.matrix(rows))
        assert a[1] != 0
        assert (a[0]._mpf_, a[1], a.pivot_ratio._mpf_) == \
            (b[0]._mpf_, b[1], b.pivot_ratio._mpf_)
        assert rows[1][1] is wide                  # the input is not modified


def test_log_abs_det_rejects_complex_entries():
    with working_dps(40):
        with pytest.raises(DomainError):
            log_abs_det([[1, 0], [0, mpmath.mpc(1, 2)]])
        with pytest.raises(DomainError):
            log_abs_det(mpmath.matrix([[1, 0], [mpmath.mpc(0, 1), 1]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
@example(n=3, seed=588)
def test_log_abs_det_product_rule(n, seed):
    # det(AB) = det(A) det(B) within the precision family
    import random

    rng = random.Random(seed)
    with working_dps(40):
        A = mpmath.matrix([[mpf(rng.randint(-9, 9)) / 4 for _ in range(n)] for _ in range(n)])
        B = mpmath.matrix([[mpf(rng.randint(-9, 9)) / 4 for _ in range(n)] for _ in range(n)])
        la, sa = log_abs_det(A)
        lb, sb = log_abs_det(B)
        lab, sab = log_abs_det(A * B)
        if sa == 0 or sb == 0:
            assert sab == 0
        else:
            assert sab == sa * sb
            assert abs(lab - la - lb) < mpf("1e-38") * (1 + abs(la) + abs(lb))


def test_bracketed_root_sqrt2():
    with working_dps(40):
        r = bracketed_root(lambda x: x * x - 2, mpf(1), mpf(2), mpf("1e-42"))
        assert abs(r - mpmath.sqrt(2)) < mpf("1e-40")


def test_bracketed_root_cos():
    with working_dps(40):
        r = bracketed_root(mpmath.cos, mpf(1), mpf(2), mpf("1e-42"))
        assert abs(r - mpmath.pi / 2) < mpf("1e-40")


def test_bracketed_root_invalid_bracket():
    with working_dps(40):
        with pytest.raises(DomainError):
            bracketed_root(lambda x: x * x + 1, mpf(0), mpf(1), mpf("1e-30"))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60))
def test_bracketed_root_residual_small(k):
    # residual through f stays at the bracket-width scale
    with working_dps(40):
        c = mpf(k) / 61
        f = lambda x: mpmath.cos(x) - c
        r = bracketed_root(f, mpf(0), mpf(3), mpf("1e-42"))
        assert abs(f(r)) < mpf("1e-40")


def test_bracketed_root_on_mode_polynomial():
    # find one mode angle of the width-6 strip from a coarse bracket and
    # verify the residual through the polynomial itself
    from isingrect.spectral import char_poly

    with working_dps(40):
        z, t = mpf("0.4"), mpf("0.55")
        f = lambda phi: char_poly(phi, z, t, 6)
        lo, hi = mpf("0.3"), mpf("0.4")
        assert f(lo) * f(hi) < 0
        r = bracketed_root(f, lo, hi, mpf("1e-42"))
        assert abs(f(r)) < mpf("1e-38")


def test_set_precision_floor():
    assert set_precision(15) > 15
    assert set_precision(100) > 100
    with pytest.raises(DomainError):
        set_precision(10)


def test_working_dps_restores():
    before = mp.dps
    with working_dps(80):
        assert mp.dps >= 80
    assert mp.dps == before
