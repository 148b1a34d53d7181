"""Column transfer factors for arbitrary couplings on the cylinder.

Each lattice column ell contributes a vertical factor Vt (dual couplings
t_{ell,m}, wrap-coupled across the seam) and a horizontal factor Vz
(couplings z_{ell,m}).  Both are 2M x 2M with two nonzeros per row.  The
partition function is

    Z = sqrt(C2t * det C),   C = E^T Vt_L Vz_{L-1} Vt_{L-1} ... Vz_1 Vt_1 E / 2,

with E = [I; I] (2M x M) and C2t = 2^((L+1)M) prod 1/z_minus.  The last
column's horizontal factor is the identity (z = 1 formally), and open
vertical boundaries correspond to t_{ell,M} = 1.

The 2M x 2M product is never formed.  Only the 2M x M block X that the
corner reads is carried: it starts at E, and each factor acts on it as row
operations, every new row a combination of two old rows, so a column costs
O(M^2) before orthonormalisation.  After every column, modified Gram-Schmidt
writes X = Q R with a positive diagonal of R; sum log r_jj goes into
log det C and Q carries on as X.  Without this the columns of X line up with
the dominant modes and the corner's pivots cancel.  The corner is then
C = (X[:M] + X[M:]) / 2.

The factor coefficients are closed forms in the couplings,

    z_plus = coth 2Kh,  z_minus = -1/sinh 2Kh,  t_plus = cosh 2Kv,  t_minus = -sinh 2Kv,

the pm pairs of z = tanh Kh and t = exp(-2Kv), without forming z or t: at
large K, 1 - z has no digit left at the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .lattice import log_C2_dagger
from .numerics import (
    GUARD_DIGITS,
    ConsistencyError,
    DomainError,
    PrecisionError,
    log_abs_det,
    working_dps,
)


@dataclass
class ColumnFactors:
    """Coefficients of one column's factors, one entry per row m."""

    z_plus: tuple    # coth 2Kh; 1 on the last column
    z_minus: tuple   # -1/sinh 2Kh; 0 on the last column
    t_plus: tuple    # cosh 2Kv
    t_minus: tuple   # -sinh 2Kv; 0 where the vertical bond is absent


def build_factors(grid, digits=40):
    """The L columns' coefficients; the last column's Vz uses the formal z = 1."""
    with working_dps(digits):
        L, M = grid.spec.L, grid.spec.M
        columns = []
        for l in range(L):
            Kh, Kv = grid.Kh[l], grid.Kv[l]
            if any(K < 0 for K in Kv) or (l < L - 1 and any(K <= 0 for K in Kh)):
                raise DomainError(
                    "transfer factors require z and t in (0, 1]; "
                    "couplings must be ferromagnetic and finite"
                )
            if l < L - 1:
                zp = tuple(mpmath.coth(2 * K) for K in Kh)
                zm = tuple(-1 / mpmath.sinh(2 * K) for K in Kh)
            else:
                zp, zm = (mpf(1),) * M, (mpf(0),) * M
            columns.append(ColumnFactors(
                z_plus=zp, z_minus=zm,
                t_plus=tuple(mpmath.cosh(2 * K) for K in Kv),
                t_minus=tuple(-mpmath.sinh(2 * K) for K in Kv)))
        return columns


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


def apply_rows(rows, cols):
    """A factor given by its row operations, applied to X given by its columns."""
    return [[a * x[i] + b * x[j] for a, i, b, j in rows] for x in cols]


def orthonormalise(cols):
    """Modified Gram-Schmidt on X's columns in place, X = Q R.

    Returns sum log r_jj and the smallest ratio |r_jj| / |x_j| over the
    columns.  Every r_jj is the norm of a column after its projections, so
    the diagonal of R is positive.  A ratio of 10^-d says that the
    projections cancelled all but 10^-d of a column, so its rounding errors
    grew by 10^d relative to what is left of it.
    """
    log_r = mpf(0)
    kept = mpf(1)
    for j in range(len(cols)):
        v = cols[j]
        before = mpmath.fdot(v, v)
        for q in cols[:j]:
            r = mpmath.fdot(q, v)
            v = [x - r * y for x, y in zip(v, q)]
        norm = mpmath.sqrt(mpmath.fdot(v, v))
        if norm == 0:
            # Z > 0, so the block keeps full rank: it lost it to rounding
            raise PrecisionError("transfer-matrix block lost its rank to rounding")
        kept = min(kept, norm / mpmath.sqrt(before))
        log_r += mpmath.log(norm)
        inv = 1 / norm
        cols[j] = [x * inv for x in v]
    return log_r, kept


def logZ_cylinder(grid, digits=40):
    """log Z from the half-sum block carried through the columns.

    Raises PrecisionError when Gram-Schmidt or the corner determinant's
    elimination cancels more than GUARD_DIGITS digits, or when a pivot or
    an r_jj cancels to zero.  The cancellation does not depend on the
    precision, so raising it does not help.
    """
    L, M = grid.spec.L, grid.spec.M
    for l in range(L - 1):
        for m in range(M):
            if grid.Kh[l][m] == 0:
                raise DomainError(
                    "the cylinder route needs nonzero horizontal couplings on "
                    "columns ell < L (the constant C2t contains 1/z_minus)"
                )
    with working_dps(digits):
        columns = build_factors(grid, digits)
        cols = [[mpf(1) if i % M == j else mpf(0) for i in range(2 * M)]
                for j in range(M)]          # X = E
        log_r, kept = mpf(0), mpf(1)
        # right to left: Vt_1, Vz_1, Vt_2, Vz_2, ..., Vz_{L-1}, Vt_L
        for l, f in enumerate(columns):
            if l > 0:
                prev = columns[l - 1]
                cols = apply_rows(horizontal_rows(prev.z_plus, prev.z_minus), cols)
            cols = apply_rows(vertical_rows(f.t_plus, f.t_minus), cols)
            lr, k = orthonormalise(cols)
            log_r += lr
            kept = min(kept, k)
        C = mpmath.matrix(M, M)
        for j, x in enumerate(cols):
            for i in range(M):
                C[i, j] = (x[i] + x[M + i]) / 2
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
        lg2, s2 = log_C2_dagger(grid)
        if M % 2 == 0 and s * s2 < 0:
            raise ConsistencyError("C2t * det corner came out negative")
        # odd M: the even-M sign bookkeeping does not apply; Z > 0 fixes it
        return (lg2 + ld + log_r) / 2
