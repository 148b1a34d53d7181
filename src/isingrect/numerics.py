"""Configurable-precision arithmetic, dense determinants, and bracketed root finding.

All heavy computation in this package runs on mpmath reals at a per-call
precision of ``digits`` significant decimal digits (default 40, minimum 15).
A few guard digits are added internally so that results are honest at the
requested precision.  Partition functions are always accumulated in the log
domain.
"""

from __future__ import annotations

from contextlib import contextmanager

import mpmath
from mpmath import mp, mpf

DEFAULT_DIGITS = 40
MIN_DIGITS = 15

# internal guard digits on top of the user-visible precision; ten digits keep
# the soft-mode gap (a near-cancellation below criticality) honest at width 32
GUARD_DIGITS = 10

# log_abs_det treats a pivot within n * 2^(this - prec) of its scale as zero
SINGULAR_PIVOT_BITS = 10


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """The requested precision is insufficient for a reliable result."""


class ConsistencyError(ArithmeticError):
    """An internal exact identity failed; indicates an assembly bug."""


def set_precision(digits):
    """Validate a precision request and return the working decimal digits.

    The returned value (digits + guard) is what the mpmath context is set to
    while computing; reported results are meaningful to ``digits`` digits.
    """
    digits = int(digits)
    if digits < MIN_DIGITS:
        raise DomainError(f"precision must be >= {MIN_DIGITS} digits, got {digits}")
    return digits + GUARD_DIGITS


@contextmanager
def working_dps(digits):
    """Context manager: run mpmath at digits + guard decimal digits."""
    wdps = set_precision(digits)
    with mp.workdps(wdps):
        yield wdps


def tol(k, digits):
    """Tolerance of the 10^(k - digits) family."""
    return mpf(10) ** (k - digits)


def to_mpf(x):
    """Convert a scalar (mpf, str, int, float) to mpf at current precision.

    A string that is not a number raises DomainError.
    """
    try:
        return mpf(x)
    except ValueError as exc:
        raise DomainError(f"not a number: {x!r}") from exc


def eye(n):
    A = mpmath.matrix(n, n)
    for i in range(n):
        A[i, i] = 1
    return A


class LogDet(tuple):
    """The pair (log|det A|, sign(det A)), with the elimination's smallest
    pivot ratio as the attribute ``pivot_ratio``."""

    def __new__(cls, logdet, sign, pivot_ratio):
        self = super().__new__(cls, (logdet, sign))
        self.pivot_ratio = pivot_ratio
        return self


def log_abs_det(A):
    """log|det A| and sign(det A) by LU elimination with partial pivoting.

    Pivoting ties are broken by the lowest row index.  A singular matrix
    yields (-inf, 0).  The input matrix is not modified.  The result unpacks
    as that pair; its ``pivot_ratio`` is the smallest

        |u_kk| / (|u_kk| + sum_{p<k} |l_kp u_pk|)

    over the pivots (0 for a singular matrix).  A ratio of 10^-d says that
    the terms that cancelled into a pivot were 10^d times its size, so the
    pivot, and det A with it, lost about d digits to the cancellation.

    Singularity is judged at the working precision: an n x n matrix counts
    as singular once a pivot u_kk satisfies

        |u_kk| <= n * 2^(SINGULAR_PIVOT_BITS - prec) * s_k,

    where prec is the working precision in bits and s_k is the larger of
    the largest |entry| of the pivot's original row and the size of the
    terms that cancelled into the pivot, |u_kk| + sum_{p<k} |l_kp u_pk|.
    Such a pivot is rounding residue and carries no digit of det A.  The
    row term catches residue that reached the pivot through multipliers
    that were residue themselves; it also makes a matrix whose columns
    differ in scale by about 2^prec singular to working precision.  The
    residue that an exactly singular matrix leaves grows with how badly
    conditioned its leading block is, so no fixed bound catches every
    case: of about 30,000 exactly singular integer matrices up to 16 x 16,
    some with rows and columns scaled by up to 2^(+-100), one left a pivot
    above the bound.  A matrix that is not called singular gets exactly
    the result of plain elimination.

    The elimination follows each row's profile: its first and last nonzero
    column.  A row is zero left of its first column until elimination
    reaches it, and an update by pivot row k extends its last column to
    row k's.  The rows whose first column is at most k sit no lower than
    the lowest such row of the input, so the pivot search and the
    elimination at step k stop there, and each update runs over the pivot
    row's nonzero columns only.  An entry that is exactly zero changes no
    sum, so every pivot, the sign, the ratio and the singular decision are
    those of the dense loop.  A row's first update rounds its other
    entries to the working precision, as the dense loop's x - f*0 does, so
    entries wider than the precision give the same bits too.  A matrix of
    bandwidth b costs O(n b^2) instead of O(n^3).
    """
    n = A.rows
    if A.cols != n:
        raise DomainError("log_abs_det requires a square matrix")
    U = A.tolist()
    lo, hi = [], []                # first and last nonzero column of each row
    for row in U:
        nz = [j for j, x in enumerate(row) if x]
        lo.append(nz[0] if nz else n)
        hi.append(nz[-1] if nz else -1)
    row_scale = [max((abs(x) for x in row[a:b + 1]), default=mpf(0))
                 for row, a, b in zip(U, lo, hi)]
    # reach[k]: the lowest row whose first column is at most k; rows below
    # it keep their input place and a zero in column k
    reach = [-1] * n
    for i, a in enumerate(lo):
        if a < n:
            reach[a] = i
    for k in range(1, n):
        reach[k] = max(reach[k], reach[k - 1])
    tiny = n * mpmath.ldexp(1, SINGULAR_PIVOT_BITS - mp.prec)
    sign = 1
    logdet = mpf(0)
    ratio = mpf(1)
    for k in range(n):
        rows = range(k + 1, reach[k] + 1)
        piv, pval = k, abs(U[k][k])
        for i in rows:
            v = abs(U[i][k])
            if v > pval:
                piv, pval = i, v
        if piv != k:
            for a in (U, row_scale, lo, hi):
                a[k], a[piv] = a[piv], a[k]
            sign = -sign
        Uk = U[k]
        # Uk[lo[k]:k] holds the multipliers l_kp of the pivot row
        cancelled = pval + sum(abs(Uk[p] * U[p][k])
                               for p in range(lo[k], k) if hi[p] >= k)
        if pval <= tiny * max(row_scale[k], cancelled):
            return LogDet(mpf("-inf"), 0, mpf(0))
        ratio = min(ratio, pval / cancelled)
        akk = Uk[k]
        if mpmath.im(akk) == 0 and mpmath.re(akk) < 0:
            sign = -sign
        logdet += mpmath.log(abs(akk))
        hk = hi[k]
        cols = [(j, Uk[j]) for j in range(k + 1, hk + 1) if Uk[j]]
        for i in rows:
            Ui = U[i]
            if not Ui[k]:
                continue
            f = Ui[k] / akk
            Ui[k] = f
            for j, u in cols:
                Ui[j] -= f * u
            if k == lo[i]:
                # first update of row i: round what the dense loop rounds
                for j in range(k + 1, hi[i] + 1):
                    if not Uk[j]:
                        Ui[j] = +Ui[j]
            if hk > hi[i]:
                hi[i] = hk
    return LogDet(logdet, sign, ratio)


def log_det_one_plus(Y):
    """log det(1 + Y) for a square matrix Y.

    When n * max|Y| < 1/2, 1 + Y is strictly diagonally dominant, so
    elimination needs no pivoting and runs on Y itself: each pivot is
    carried as d_k = u_kk - 1 and log det(1 + Y) = sum_k log1p(d_k).  The
    result then keeps its relative digits however small Y is; forming 1 + Y
    would round away every digit of det(1 + Y) - 1 below 2^-prec.  Larger
    Y goes through log_abs_det(1 + Y).
    """
    n = Y.rows
    V = Y.tolist()
    if 2 * n * max(abs(x) for row in V for x in row) < 1:
        logdet = mpf(0)
        for k in range(n):
            Vk = V[k]
            logdet += mpmath.log1p(Vk[k])
            for i in range(k + 1, n):
                Vi = V[i]
                f = Vi[k] / (1 + Vk[k])
                if f:
                    for j in range(k + 1, n):
                        Vi[j] -= f * Vk[j]
        return logdet
    Z = Y.copy()
    for i in range(n):
        Z[i, i] += 1
    ld, s = log_abs_det(Z)
    if s <= 0:
        raise ConsistencyError("det(1 + Y) is not positive")
    return ld


def trace_solve(A, B):
    """tr(A^(-1) B) for square n x n matrices given as lists of rows.

    One LU of A with partial pivoting (ties to the lowest row index), in
    Crout order so that each entry of L, U and the solve is one dot product,
    rounded once by mpmath.fdot.  The row interchanges are applied to B, and
    for each column c of X = A^(-1) B back substitution stops at X[c][c].
    Neither input is modified.
    """
    n = len(A)
    U = [row[:] for row in A]
    R = [row[:] for row in B]
    for k in range(n):
        col = [U[p][k] for p in range(k)]
        for i in range(k, n):
            U[i][k] -= mpmath.fdot(zip(U[i], col))
        piv = max(range(k, n), key=lambda i: abs(U[i][k]))
        U[k], U[piv] = U[piv], U[k]
        R[k], R[piv] = R[piv], R[k]
        Uk = U[k]
        for j in range(k + 1, n):
            Uk[j] -= mpmath.fdot(zip(Uk, [U[p][j] for p in range(k)]))
        for i in range(k + 1, n):
            U[i][k] /= Uk[k]
    trace = mpf(0)
    for c in range(n):
        z = []                      # column c of L^(-1) B
        for k in range(n):
            z.append(R[k][c] - mpmath.fdot(zip(U[k], z)))
        xs = []                     # X[n-1][c], X[n-2][c], ..., X[c][c]
        for k in reversed(range(c, n)):
            xs.append((z[k] - mpmath.fdot(zip(U[k][k + 1:], reversed(xs)))) / U[k][k])
        trace += xs[-1]
    return trace


def bracketed_root(f, a, b, xtol, maxiter=None):
    """Root of f in [a, b] with f(a) f(b) < 0, to bracket width <= xtol.

    Illinois-damped regula falsi with a bisection fallback; the bracket is
    guaranteed to shrink, so convergence is unconditional.
    """
    a, b = mpf(a), mpf(b)
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if mpmath.sign(fa) == mpmath.sign(fb):
        raise DomainError("invalid bracket: f(a) and f(b) have the same sign")
    if maxiter is None:
        maxiter = 8 * mp.dps + 60
    side = 0
    for _ in range(maxiter):
        if abs(b - a) <= xtol:
            break
        denom = fb - fa
        if denom != 0:
            c = b - fb * (b - a) / denom
        else:
            c = (a + b) / 2
        # keep the step safely interior, else bisect
        lo, hi = (a, b) if a < b else (b, a)
        if not (lo < c < hi):
            c = (a + b) / 2
        fc = f(c)
        if fc == 0:
            return c
        if mpmath.sign(fc) == mpmath.sign(fb):
            b, fb = c, fc
            if side == 1:
                fa /= 2  # Illinois damping keeps the stale end moving
            side = 1
        else:
            a, fa = b, fb
            b, fb = c, fc
            side = -1
    return (a + b) / 2


def signed_log(x):
    """(log|x|, sign) of a nonzero mpf; (−inf, 0) for zero."""
    if x == 0:
        return mpf("-inf"), 0
    return mpmath.log(abs(x)), (1 if x > 0 else -1)


def nstr(x, digits):
    """Deterministic decimal rendering at the requested precision."""
    return mpmath.nstr(x, digits, strip_zeros=True)
