"""Column transfer factors for arbitrary couplings on the cylinder.

Each lattice column ell contributes a vertical factor Vt (dual couplings
t_{ell,m}, wrap-coupled across the seam) and a horizontal factor Vz
(couplings z_{ell,m}).  Both are 2M x 2M with two nonzeros per row.  The
partition function is

    Z = sqrt(C2t * det C),   C = E^T Vt_L Vz_{L-1} Vt_{L-1} ... Vz_1 Vt_1 E / 2,

with E = [I; I] (2M x M) and C2t = 2^((L+1)M) prod_{ell<L} 1/z_minus.  The
last column's horizontal factor is the identity (z = 1 formally), and open
vertical boundaries correspond to t_{ell,M} = 1.  Each 1/z_minus is
-sinh 2Kh, so log|C2t| is summed from the log sinh 2Kh that build_factors
takes with the coefficients.

The 2M x 2M product is never formed.  Only the 2M x M block X that the
corner reads is carried: it starts at E, and each factor acts on it as row
operations, every new row a combination of two old rows, so a column costs
O(M^2).  Modified Gram-Schmidt writes X = Q R with a positive diagonal of R;
sum log r_jj goes into log det C and Q carries on as X.  Without it the
columns of X line up with the dominant modes and the corner's pivots
cancel.  Gram-Schmidt costs O(M^3), so it runs on a cadence, not after
every column: X is orthonormalised before a column whose factors would
take the span's growth bound G (below) past EXTRA_BITS, and always after
the last column.  The corner is then C = (X[:M] + X[M:]) / 2.

The factor coefficients are closed forms in the couplings,

    z_plus = coth 2Kh,  z_minus = -1/sinh 2Kh,  t_plus = cosh 2Kv,  t_minus = -sinh 2Kv,

the pm pairs of z = tanh Kh and t = exp(-2Kv), without forming z or t: at
large K, 1 - z has no digit left at the working precision.

Fixed point.  The column loop runs on Python ints: a real x is held as the
int round(x 2^F), with F = prec + 2 EXTRA_BITS bits and prec the working
precision.  The coefficients are rounded to this grid once per distinct
coupling.  A row operation is (a x_i + b x_j + 2^(F-1)) >> F, one rounding
per entry.  Gram-Schmidt lifts a column to 2^(2F), subtracts its
projections exactly, rounds each projection coefficient once, takes the
norm by isqrt and normalises by a rounded division.  Only sum log r_jj, the
certificate ratio and the M x M corner return to mpf.  Each log r_jj is the
log of the norm with its power of two applied as an mpf exponent; the log
of the int less a multiple of log 2 would cancel about two digits.

Growth bound.  For a factor T with int coefficients,
log2 |T|_2 <= g(T) = log2 sqrt(|T|_1 |T|_inf), where |T|_inf is the
largest |a| + |b| over its rows and |T|_1 the largest column sum of |a|
and |b|.  g >= 0, since cosh 2Kv and coth 2Kh are at least 1.  G is the
sum of g over the factors applied since the last Gram-Schmidt, so a
product of any of those factors that ends the span has norm at most 2^G,
whatever the couplings are.  The budget EXTRA_BITS keeps G <= EXTRA_BITS
on every span of two or more columns; the growth it allows comes out of
the EXTRA_BITS that F holds beyond prec + EXTRA_BITS, not out of the
guard digits.

Rounding here is absolute, 2^-F per entry, not relative.  That is safe
because Q has orthonormal columns where a span starts, so every entry is at
most 1 there, and Gram-Schmidt in floating point leaves errors of the same
kind: relative to a column's norm, not to each entry.  It fails for a
column that shrinks before Gram-Schmidt, whose absolute errors are then
large beside it.  A column x that Gram-Schmidt leaves with norm r has a
relative error of about 2^-F max(|x|, 1) / r from the rounding of the
span's last column and of Gram-Schmidt, against 2^-prec |x| / r in floating
point.  The rounding of the span's earlier columns adds to it.  A factor
rounds each entry of X by at most 2^-(F+1), so each column of X by at most
sqrt(2M) 2^-(F+1), and a lattice column's two factors by twice that.  The
factors after it multiply this by at most 2^G.  After a span of k columns
each column of X therefore carries at most

    (k - 1) sqrt(2M) 2^(G-F) = 2^-prec c 2^(G - EXTRA_BITS),
    c = (k - 1) sqrt(2M) 2^-EXTRA_BITS,

from the first k - 1 columns, with F = prec + 2 EXTRA_BITS.  The
certificate therefore takes

    r / max(|x|, 2^-EXTRA_BITS, c 2^(G - EXTRA_BITS))

for each column: the floating-point ratio r / |x| down to
|x| = 2^-EXTRA_BITS, where the extra bits absorb the shrinkage, a bound on
the loss of any smaller column, and the span's carried rounding.  A span of one
column has c = 0 and is charged as when Gram-Schmidt followed every column.
The bound holds for a column that shrank and grew again inside a span,
which no norm taken at the span's end can show.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log2
from operator import mul

import mpmath
from mpmath import mp, mpf

from .numerics import (
    GUARD_DIGITS,
    ConsistencyError,
    DomainError,
    PrecisionError,
    log_abs_det,
    working_dps,
)

# spare fixed-point bits: the certificate's floor for a small column, and the
# growth bound a span between two Gram-Schmidt steps may reach; F holds both
EXTRA_BITS = 20


def to_fixed(x, bits):
    """The int nearest to x 2^bits."""
    return int(mpmath.nint(mpmath.ldexp(x, bits)))


@dataclass
class ColumnFactors:
    """Coefficients of one column's factors, one entry per row m, as ints
    scaled by 2^bits, and the column's terms of log|C2t| as mpf."""

    bits: int
    z_plus: tuple    # coth 2Kh; 1 on the last column
    z_minus: tuple   # -1/sinh 2Kh; 0 on the last column
    t_plus: tuple    # cosh 2Kv
    t_minus: tuple   # -sinh 2Kv; 0 where the vertical bond is absent
    log_sinh: tuple  # log sinh 2Kh = log|1/z_minus|; empty on the last column


def build_factors(grid, digits=40):
    """The L columns' coefficients; the last column's Vz uses the formal z = 1.

    The closed forms are evaluated once per distinct coupling and rounded to
    F = prec + 2 EXTRA_BITS bits at the working precision; sinh 2Kh is taken
    once for z_minus and log|C2t|.  A zero horizontal coupling on a column
    ell < L raises DomainError, since C2t holds 1/z_minus; so does any
    negative coupling.
    """
    with working_dps(digits):
        F = mp.prec + 2 * EXTRA_BITS
        L, M = grid.spec.L, grid.spec.M
        horizontal, vertical = {}, {}

        def h_triple(K):
            if K not in horizontal:
                s = mpmath.sinh(2 * K)
                horizontal[K] = (to_fixed(mpmath.coth(2 * K), F),
                                 to_fixed(-1 / s, F), mpmath.log(s))
            return horizontal[K]

        def v_pair(K):
            if K not in vertical:
                vertical[K] = (to_fixed(mpmath.cosh(2 * K), F),
                               to_fixed(-mpmath.sinh(2 * K), F))
            return vertical[K]

        columns = []
        for l in range(L):
            Kh, Kv = grid.Kh[l], grid.Kv[l]
            if l < L - 1 and any(K == 0 for K in Kh):
                raise DomainError(
                    "the cylinder route needs nonzero horizontal couplings on "
                    "columns ell < L (the constant C2t contains 1/z_minus)"
                )
            if any(K < 0 for K in Kv) or (l < L - 1 and any(K < 0 for K in Kh)):
                raise DomainError(
                    "transfer factors require z and t in (0, 1]; "
                    "couplings must be ferromagnetic and finite"
                )
            if l < L - 1:
                zp, zm, logs = zip(*map(h_triple, Kh))
            else:
                zp, zm, logs = (1 << F,) * M, (0,) * M, ()
            tp, tm = zip(*map(v_pair, Kv))
            columns.append(ColumnFactors(F, zp, zm, tp, tm, logs))
        return columns


def log_C2_dagger(columns):
    """log|C2t| = (L + 1) M log 2 + sum over the bonds ell < L of
    log sinh 2Kh, in (ell, m) order, from build_factors' columns.

    C2t = 2^((L+1)M) prod 1/z_minus = C0 C1 with 1/z_minus = -sinh 2Kh, so
    its sign is (-1)^((L-1)M).
    """
    total = (len(columns) + 1) * len(columns[0].t_plus) * mpmath.log(mpf(2))
    for f in columns:
        for x in f.log_sinh:
            total += x
    return total


# A factor acts on the rows of X as a list of 2M tuples (a, i, b, j): new
# row r is a * X[i] + b * X[j].

def horizontal_rows(zp, zm):
    """Row operations of Vz: rows m and M + m mix through z_minus."""
    M = len(zp)
    return ([(zp[a], a, -zm[a], M + a) for a in range(M)]
            + [(-zm[a], a, zp[a], M + a) for a in range(M)])


def vertical_rows(tp, tm):
    """Row operations of Vt: the bond (m, m + 1) mixes rows m + 1 and M + m;
    the seam bond (M, 1) mixes rows 0 and 2M - 1 with the sign of t_minus flipped."""
    M = len(tp)
    top = [(tp[M - 1], 0, -tm[M - 1], 2 * M - 1)]
    top += [(tp[a - 1], a, tm[a - 1], M + a - 1) for a in range(1, M)]
    bottom = [(tm[a], a + 1, tp[a], M + a) for a in range(M - 1)]
    bottom.append((-tm[M - 1], 0, tp[M - 1], 2 * M - 1))
    return top + bottom


def growth_bits(rows, bits):
    """log2 sqrt(|T|_1 |T|_inf), a bound on log2 |T|_2 of the factor T given
    by its row operations, from their int coefficients scaled by 2^bits."""
    col_sums = [0] * len(rows)
    for a, i, b, j in rows:
        col_sums[i] += abs(a)
        col_sums[j] += abs(b)
    row_sum = max(abs(a) + abs(b) for a, _, b, _ in rows)
    return (log2(row_sum) + log2(max(col_sums))) / 2 - bits


def apply_rows(rows, cols, bits):
    """A factor given by its row operations, applied to X given by its
    columns; coefficients and entries are ints scaled by 2^bits."""
    half = 1 << (bits - 1)
    return [[(a * x[i] + b * x[j] + half) >> bits for a, i, b, j in rows]
            for x in cols]


def orthonormalise(cols, bits, span=1, growth=0):
    """Modified Gram-Schmidt on X's columns in place, X = Q R, on ints
    scaled by 2^bits, after a span of `span` columns whose factors' growth
    bound is G = `growth` bits.

    Returns sum log r_jj and the smallest ratio
    r_jj / max(|x_j|, 2^-EXTRA_BITS, c 2^(G - EXTRA_BITS)) over the columns
    x_j, both as mpf, with c = (span - 1) sqrt(2M) 2^-EXTRA_BITS (see the
    module docstring).  Every r_jj is the norm of a column after its
    projections, so the diagonal of R is positive.  A ratio of 10^-d says
    that the column's rounding errors grew by 10^d relative to what is left
    of it, whether the projections cancelled it, it reached Gram-Schmidt
    smaller than the fixed-point grid resolves, or the span's factors grew
    the rounding it carries.
    """
    F, F2 = bits, 2 * bits
    half2 = 1 << (F2 - 1)
    floor = 1 << (F - EXTRA_BITS)
    if span > 1:
        carried = (span - 1) * mpmath.sqrt(len(cols[0])) * mpf(2) ** growth
        floor = max(floor, int(mpmath.ceil(mpmath.ldexp(carried, F - 2 * EXTRA_BITS))))
    log_r = mpf(0)
    kept_num, kept_den = 1, 1
    for j, x in enumerate(cols):
        before = max(isqrt(sum(map(mul, x, x))), floor)
        v = [e << F for e in x]                      # scaled by 2^2F
        for q in cols[:j]:
            r = (sum(map(mul, q, v)) + half2) >> F2  # q . v, scaled by 2^F
            v = [e - r * y for e, y in zip(v, q)]
        norm = isqrt(sum(map(mul, v, v)))            # |v| 2^2F
        if norm == 0:
            # Z > 0, so the block keeps full rank: it lost it to rounding
            raise PrecisionError("transfer-matrix block lost its rank to rounding")
        # norm / (before 2^F) < kept_num / kept_den
        den = before << F
        if norm * kept_den < kept_num * den:
            kept_num, kept_den = norm, den
        log_r += mpmath.log(mpf((norm, -F2)))
        twice = norm << 1
        cols[j] = [((e << (F + 1)) + norm) // twice for e in v]
    return log_r, mpf(kept_num) / kept_den


def logZ_cylinder(grid, digits=40):
    """log Z from the half-sum block carried through the columns.

    X is orthonormalised before a column whose factors would take the growth
    bound G of the span since the last Gram-Schmidt past EXTRA_BITS, and
    after the last column; each Gram-Schmidt charges the certificate for
    the rounding its span carried (see the module docstring).

    Raises PrecisionError when Gram-Schmidt or the corner determinant's
    elimination cancels more than GUARD_DIGITS digits, when a column reaches
    Gram-Schmidt so small that the fixed-point grid costs it as many, or
    when a pivot or an r_jj cancels to zero.  The cancellation does not
    depend on the precision, so raising it does not help.
    """
    M = grid.spec.M
    with working_dps(digits):
        columns = build_factors(grid, digits)
        F = columns[0].bits
        one = 1 << F
        cols = [[one if i % M == j else 0 for i in range(2 * M)]
                for j in range(M)]          # X = E
        steps = []                  # (sum log r_jj, ratio) of each Gram-Schmidt
        span, growth = 0, 0.0       # columns and growth bound since the last
        # right to left: Vt_1, Vz_1, Vt_2, Vz_2, ..., Vz_{L-1}, Vt_L
        for l, f in enumerate(columns):
            factors = [vertical_rows(f.t_plus, f.t_minus)]
            if l > 0:
                prev = columns[l - 1]
                factors.insert(0, horizontal_rows(prev.z_plus, prev.z_minus))
            g = sum(growth_bits(rows, F) for rows in factors)
            if span and growth + g > EXTRA_BITS:
                steps.append(orthonormalise(cols, F, span, growth))
                span, growth = 0, 0.0
            for rows in factors:
                cols = apply_rows(rows, cols, F)
            span += 1
            growth += g
        steps.append(orthonormalise(cols, F, span, growth))
        log_r = sum((lr for lr, _ in steps), mpf(0))
        kept = min(k for _, k in steps)
        C = [[mpf((x[i] + x[M + i], -F - 1)) for x in cols] for i in range(M)]
        det = log_abs_det(C)
        ld, s = det
        if s == 0:
            # Z > 0, so the corner determinant cannot vanish exactly: its
            # pivots cancelled down to rounding residue at this precision
            raise PrecisionError(
                f"transfer-matrix corner determinant lost every digit at "
                f"{digits} digits"
            )
        # rounding errors grow by at most about 1/ratio in either stage
        ratio = min(kept, det.pivot_ratio)
        if ratio < mpf(10) ** -GUARD_DIGITS:
            raise PrecisionError(
                f"the transfer-matrix route lost about "
                f"{mpmath.nstr(-mpmath.log10(ratio), 3)} digits to cancellation, "
                f"more than its {GUARD_DIGITS} guard digits"
            )
        # C2t > 0 for even M; for odd M the even-M sign bookkeeping does
        # not apply, and Z > 0 fixes the sign
        if M % 2 == 0 and s < 0:
            raise ConsistencyError("C2t * det corner came out negative")
        return (log_C2_dagger(columns) + ld + log_r) / 2
