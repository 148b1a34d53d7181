"""Configurable-precision arithmetic, determinants, and bracketed root finding.

All computation in this package runs at a per-call precision of ``digits``
significant decimal digits (default 40, minimum 15), on mpmath reals or, in
the heavy kernels, on what lies beneath them: log_abs_det eliminates on raw
mpf tuples with mpmath.libmp's rounded operations, and the residual
determinant (like the cylinder's transfer product) on fixed-point Python
ints.  A few guard digits are added internally so that results are honest
at the requested precision.  Partition functions are always accumulated in
the log domain.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import compress

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_pos,
    mpf_sub,
    to_fixed,
)

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

    mpf values are immutable, so one value is shared where it can be: an
    mpf that already fits the precision comes back as itself, and a string
    is parsed once per precision (a sweep row hands the same coupling
    string to the report, its couplings and the free-energy pieces).  A
    string that is not a number raises DomainError.
    """
    if type(x) is mpf and x._mpf_[3] <= mp.prec:
        return x
    if isinstance(x, str):
        return _parse(x, mp.prec)
    return mpf(x)


@lru_cache(maxsize=32)
def _parse(text, prec):
    """mpf(text) at the current precision, prec, which keys the cache."""
    try:
        return mpf(text)
    except ValueError as exc:
        raise DomainError(f"not a number: {text!r}") from exc


class LogDet(tuple):
    """The pair (log|det A|, sign(det A)), with the elimination's smallest
    pivot ratio as the attribute ``pivot_ratio``."""

    def __new__(cls, logdet, sign, pivot_ratio):
        self = super().__new__(cls, (logdet, sign))
        self.pivot_ratio = pivot_ratio
        return self


def log_abs_det(A):
    """log|det A| and sign(det A) by LU elimination with partial pivoting.

    A is a list of n rows of n real entries (int, float or mpf), or an
    mpmath.matrix, which is read once through tolist().  An entry that is
    complex, or a row of the wrong length, raises DomainError.  The input
    is not modified, and an mpf entry wider than the working precision is
    taken as it is, not rounded on input.

    Pivoting ties are broken by the lowest row index.  A singular matrix
    yields (-inf, 0).  The result unpacks as that pair; its
    ``pivot_ratio`` is the smallest

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

    The loop runs on raw mpf tuples: each step is the mpmath.libmp call
    that the mpf operator would make (mpf_mul, mpf_sub, mpf_div, mpf_abs,
    ...) at the context's precision and rounding, so it rounds exactly as
    the operators do, and the cancelled sum keeps the order
    pval + (0 + sum |l u|) of Python's sum.
    """
    if isinstance(A, mpmath.matrix):
        A = A.tolist()
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("log_abs_det requires a square matrix")
    prec, rnd = mp._prec_rounding
    U, lo, hi, row_scale = [], [], [], []
    for row in A:
        nz = list(compress(range(n), row))     # the nonzero columns
        Ui = [fzero] * n
        scale = fzero                          # the largest |entry|
        for j in nz:
            x = Ui[j] = _raw(row[j])
            a = mpf_abs(x, prec, rnd)
            if mpf_cmp(a, scale) > 0:
                scale = a
        U.append(Ui)
        lo.append(nz[0] if nz else n)          # first and last nonzero column
        hi.append(nz[-1] if nz else -1)
        row_scale.append(scale)
    # reach[k]: the lowest row whose first column is at most k; rows below
    # it keep their input place and a zero in column k
    reach = [-1] * n
    for i, a in enumerate(lo):
        if a < n:
            reach[a] = i
    for k in range(1, n):
        reach[k] = max(reach[k], reach[k - 1])
    tiny = from_man_exp(n, SINGULAR_PIVOT_BITS - prec)
    sign = 1
    logdet = fzero
    ratio = fone
    for k in range(n):
        rows = range(k + 1, reach[k] + 1)
        piv, pval = k, mpf_abs(U[k][k], prec, rnd)
        for i in rows:
            x = U[i][k]
            if x != fzero:
                v = mpf_abs(x, prec, rnd)
                if mpf_cmp(v, pval) > 0:
                    piv, pval = i, v
        if piv != k:
            for a in (U, row_scale, lo, hi):
                a[k], a[piv] = a[piv], a[k]
            sign = -sign
        Uk = U[k]
        # Uk[lo[k]:k] holds the multipliers l_kp of the pivot row
        total = fzero
        for p in range(lo[k], k):
            if hi[p] >= k:
                total = mpf_add(total, mpf_abs(mpf_mul(Uk[p], U[p][k], prec, rnd),
                                               prec, rnd), prec, rnd)
        cancelled = mpf_add(pval, total, prec, rnd)
        s_k = cancelled if mpf_cmp(cancelled, row_scale[k]) > 0 else row_scale[k]
        if mpf_cmp(pval, mpf_mul(tiny, s_k, prec, rnd)) <= 0:
            return LogDet(mpf("-inf"), 0, mpf(0))
        q = mpf_div(pval, cancelled, prec, rnd)
        if mpf_cmp(q, ratio) < 0:
            ratio = q
        akk = Uk[k]
        if akk[0]:                              # the sign bit of a nonzero pivot
            sign = -sign
        logdet = mpf_add(logdet, mpf_log(pval, prec, rnd), prec, rnd)
        hk = hi[k]
        cols = [(j, Uk[j]) for j in range(k + 1, hk + 1) if Uk[j] != fzero]
        for i in rows:
            Ui = U[i]
            x = Ui[k]
            if x == fzero:
                continue
            f = Ui[k] = mpf_div(x, akk, prec, rnd)
            for j, u in cols:
                Ui[j] = mpf_sub(Ui[j], mpf_mul(f, u, prec, rnd), prec, rnd)
            if k == lo[i]:
                # first update of row i: round what the dense loop rounds
                for j in range(k + 1, hi[i] + 1):
                    if Uk[j] == fzero:
                        Ui[j] = mpf_pos(Ui[j], prec, rnd)
            if hk > hi[i]:
                hi[i] = hk
    return LogDet(mp.make_mpf(logdet), sign, mp.make_mpf(ratio))


def _raw(x):
    """The _mpf_ tuple of a real matrix entry, exact and not re-rounded."""
    if type(x) is not mpf:
        x = mp.convert(x)               # an int or a float converts exactly
        if not hasattr(x, "_mpf_"):
            raise DomainError("log_abs_det requires a real matrix")
    return x._mpf_


def log_det_bipartite_cauchy(c, w, gamma_hat):
    """(log det R, d/dL log det R, min_delta, width) for R = I + C.

    C is the bipartite Cauchy-like matrix C_mu,nu = w_mu / (c_mu - c_nu)
    where mu and nu differ in parity, and 0 elsewhere, with dw_mu/dL =
    -gamma_hat_mu w_mu.  In the spectral route det R = det(1 + Y) by
    Sylvester's identity.  min_delta is the smallest pivot - 1 after the
    first (which is exactly 1), and width the fraction bits F below.

    After the similarity D^-1 R D with D = diag(sqrt|w|), which changes
    neither det R nor its derivative, diag(c) R - R diag(c) = a1 b1^T +
    a2 b2^T with a1 = sgn(w) sqrt|w| and b2 = sqrt|w| on even mu, a2 =
    sgn(w) sqrt|w| and b1 = sqrt|w| on odd mu, and zeros elsewhere.  So
    every off-diagonal entry is (a_i . b_j)/(c_i - c_j), and the diagonal,
    which that form cannot give, is kept apart as delta_i = R_ii - 1.
    Gaussian elimination in index order updates only the two generators
    and delta, O(M) per step (Gohberg, Kailath & Olshevsky, Math. Comp. 64
    (1995) 1557), and the L-derivative of each quantity rides along in
    forward mode.  Everything runs on Python ints at one scale 2^F.

    For the spectral route's residual determinant each leading principal
    minor of R is 1 plus a sum of positive terms (the balanced states of
    the effective spin model), so every pivot 1 + delta_k is >= 1 and no
    pivoting is needed; det R - 1 is accumulated from the delta_k directly,
    which keeps the relative digits of a tiny det R - 1.  A pivot below 1
    by more than 2^guard units, the rounding that the guard bits allow for,
    means that a term was not positive or that digits were lost, and raises
    PrecisionError.  The largest pair term is at least tau = max|w_e|
    max|w_o| / (c_max - c_min)^2, and so is det R - 1; F = prec + guard +
    max(0, -log2 tau) resolves it to the working precision.  A c_mu >= 1,
    as every mode constant is, is exact at that scale.
    """
    M = len(c)
    tau = max(map(abs, w[0::2])) * max(map(abs, w[1::2])) / (max(c) - min(c)) ** 2
    guard = 8 + 2 * M.bit_length()     # a few units of rounding per step
    F = mp.prec + guard + max(0, 1 - mpmath.mag(tau))
    one = 1 << F

    def fix(x):
        return to_fixed(x._mpf_, F)

    cs = [fix(x) for x in c]
    root = [fix(mpmath.sqrt(abs(x))) for x in w]
    signed = [r if x > 0 else -r for r, x in zip(root, w)]
    odd = [i % 2 == 0 for i in range(M)]
    a1 = [s if o else 0 for s, o in zip(signed, odd)]
    a2 = [0 if o else s for s, o in zip(signed, odd)]
    b1 = [0 if o else r for r, o in zip(root, odd)]
    b2 = [r if o else 0 for r, o in zip(root, odd)]
    # d sqrt|w_mu| / dL = -(gamma_hat_mu / 2) sqrt|w_mu|
    half = [fix(g / 2) for g in gamma_hat]
    da1, da2, db1, db2 = ([-(g * x >> F) for g, x in zip(half, gen)]
                          for gen in (a1, a2, b1, b2))
    delta, ddelta = [0] * M, [0] * M
    for k in range(M):
        dk, ddk = delta[k], ddelta[k]
        if dk < -(1 << guard):
            raise PrecisionError(
                f"pivot {k} of the residual determinant fell below 1 by "
                f"2^{dk.bit_length() - F}: a balanced term was not positive "
                "or the working precision was lost")
        piv = one + dk
        ck = cs[k]
        ak1, ak2, bk1, bk2 = a1[k], a2[k], b1[k], b2[k]
        dak1, dak2, dbk1, dbk2 = da1[k], da2[k], db1[k], db2[k]
        for i in range(k + 1, M):
            # R_ik, R_ki from the generators, and their L-derivatives
            den = cs[i] - ck
            a1i, a2i, b1i, b2i = a1[i], a2[i], b1[i], b2[i]
            rik = (a1i * bk1 + a2i * bk2) // den
            rki = -((ak1 * b1i + ak2 * b2i) // den)
            drik = (da1[i] * bk1 + a1i * dbk1 + da2[i] * bk2 + a2i * dbk2) // den
            drki = -((dak1 * b1i + ak1 * db1[i] + dak2 * b2i + ak2 * db2[i]) // den)
            # the multipliers R_ik / piv and R_ki / piv
            l = (rik << F) // piv
            u = (rki << F) // piv
            dl = ((drik << F) - l * ddk) // piv
            du = ((drki << F) - u * ddk) // piv
            a1[i] = a1i - (l * ak1 >> F)
            a2[i] = a2i - (l * ak2 >> F)
            da1[i] -= (dl * ak1 + l * dak1) >> F
            da2[i] -= (dl * ak2 + l * dak2) >> F
            b1[i] = b1i - (u * bk1 >> F)
            b2[i] = b2i - (u * bk2 >> F)
            db1[i] -= (du * bk1 + u * dbk1) >> F
            db2[i] -= (du * bk2 + u * dbk2) >> F
            delta[i] -= l * rki >> F
            ddelta[i] -= (dl * rki + l * drki) >> F
    excess = 0                           # det R - 1 = prod (1 + delta_k) - 1
    for d in delta:
        excess += d + (excess * d >> F)
    deriv = sum((dd << F) // (one + d) for d, dd in zip(delta, ddelta))
    return (mpmath.log1p(mpf((excess, -F))), mpf((deriv, -F)),
            mpf((min(delta[1:]), -F)), F)


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
