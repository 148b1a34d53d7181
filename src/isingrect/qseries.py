"""Periodic infinite products Pi(C|q) and the free-energy pieces they build.

A coefficient matrix C with rows C[j][r] (j = 0..order, r = 0..period-1)
defines exponents c_k = sum_j C[j][k mod p] k^j and the product

    Pi(C|q) = prod_{k>=1} (1 - q^k)^(c_k),

convergent for 0 <= q < 1.  Its logarithm is evaluated as the Lambert
series

    log Pi(C|q) = -sum_{n>=1} a_n q^n,  a_n = (1/n) sum_{d|n} d c_d,

whose exact coefficients each table caches; pi_product runs it by Horner's
scheme on fixed-point Python ints, with the leading power of q factored
out so that a tiny log Pi keeps its relative digits, and raises
PrecisionError when the terms cancel past the guard digits.  The corner
products at large K are such tiny values: a factor-by-factor sum forms
each log(1 - q^k) from a rounded 1 - q^k and loses 22 of 40 digits of
f_c at K = 20.

For the isotropic square lattice the natural low-temperature variable q
is fixed by t = sqrt(q) Pi(C_t|q) with t = exp(-2K) in the ordered phase;
by duality the same product gives z = tanh(K) in the paramagnetic phase.
The bulk, surface, and corner free energies then have closed product
expressions on either side of the critical point.

The inverse map is closed too: q is the square root of the elliptic nome of
modulus k = (2t/(1 - t^2))^2, so q_of_t evaluates two arithmetic-geometric
means, for 0 < t < sqrt(2) - 1 and q < Q_CUTOFF, and certifies the result
with one product t_of_q(q) (see q_of_t).

Assembly conventions (verified against exact finite-lattice computations to
better than 1e-10):

* below T_c the bulk product q^(-1/2) Pi is the complete bulk free energy;
  no separate regular factor enters;
* the surface term is per column/row of the lattice and covers both of its
  boundary faces, so its regular part is -1/2 log(1 - z^2) = log cosh K,
  twice the per-face value (computed as log cosh K, which does not cancel
  as z -> 1);
* the corner products carry the two-phase degeneracy constant -log 2 in the
  ordered phase; with apply_errata=True (default) that constant is removed,
  making f_c -> 0 at T -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .lattice import critical_coupling_isotropic
from .numerics import (
    GUARD_DIGITS,
    MIN_DIGITS,
    DomainError,
    PrecisionError,
    to_mpf,
    tol,
    working_dps,
)

Q_CUTOFF = mpf("0.9")

# bits that hold the GUARD_DIGITS decimal digits
GUARD_BITS = math.ceil(GUARD_DIGITS * math.log2(10))


@dataclass(frozen=True)
class PeriodicCoeffMatrix:
    """Exponent table: rows[j][r] multiplies k^j for k = r (mod period)."""

    rows: tuple
    # D, the rows' common denominator; the Lambert sums D m a_m; and
    # [Fb, floor(a_m 2^Fb)...] at the scale Fb of the last evaluation
    _den: int = field(init=False, repr=False, compare=False)
    _sums: list = field(default_factory=list, init=False, repr=False, compare=False)
    _fixed: list = field(default_factory=lambda: [None, []], init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        p = len(self.rows[0])
        if any(len(r) != p for r in self.rows):
            raise DomainError("all coefficient rows must share one period")
        object.__setattr__(self, "_den", math.lcm(
            *(Fraction(x).denominator for row in self.rows for x in row)))

    @property
    def period(self):
        return len(self.rows[0])

    @property
    def order(self):
        return len(self.rows) - 1

    def exponent(self, k):
        """c_k as an exact Fraction."""
        r = k % self.period
        return sum(Fraction(row[r]) * k ** j for j, row in enumerate(self.rows))

    def _lambert_sums(self, n):
        """D m a_m = sum_{d|m} d D c_d, an int, for m = 0..n at least, where
        a_m = (1/m) sum_{d|m} d c_d is the m-th Lambert coefficient.  Cached,
        and extended to at least twice the length when a call needs more."""
        sums = self._sums
        if len(sums) <= n:
            size = max(n + 1, 2 * len(sums))
            new = [0] * size
            for d in range(1, size):
                dc = int(d * self._den * self.exponent(d))
                if dc:
                    for m in range(d, size, d):
                        new[m] += dc
            sums[:] = new
        return sums

    def _lambert_fixed(self, Fb, n):
        """floor(a_m 2^Fb) for m = 0..n at least, cached for the last Fb."""
        fixed = self._fixed
        if fixed[0] != Fb or len(fixed[1]) <= n:
            sums = self._lambert_sums(n)
            fixed[:] = [Fb, [0] + [(sums[m] << Fb) // (m * self._den)
                                   for m in range(1, len(sums))]]
        return fixed[1]


def _cm(*rows):
    return PeriodicCoeffMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


F = Fraction

# q <-> coupling relation (period 8); the same row serves t below and z above
COUPLING_VARIABLE = _cm([0, 1, 0, -1, 0, -1, 0, 1])

# ordered phase
BULK_BELOW = _cm([0, 0, -1, 0, 2, 0, -1, 0],
                 [0, -1, 0, 1, 0, -1, 0, 1])
SURFACE_BELOW_MAIN = _cm([0, F(3, 4), -1, F(-3, 4), 2, F(-3, 4), -1, F(3, 4)],
                         [0, F(1, 4), 0, F(1, 4), 0, F(-1, 4), 0, F(-1, 4)])
SURFACE_BELOW_HALFQ = _cm([0, F(-1, 2), 0, F(1, 2), 0, F(1, 2), 0, F(-1, 2)],
                          [0, F(-1, 2), 0, F(-1, 2), 0, F(1, 2), 0, F(1, 2)])
CORNER_BELOW = _cm([0, -2, 3, -2, -1, -2, 3, -2],
                   [0, -2, F(1, 2), 2, 0, -2, F(-1, 2), 2])

# paramagnetic phase; the validation battery checks the bulk and corner
# tables against equivalent period-4 / squared-argument rewrites
BULK_ABOVE = _cm([0, 2, -4, 2, 0, 2, -4, 2],
                 [0, -1, 0, 1, 0, -1, 0, 1])
SURFACE_ABOVE = _cm([0, F(1, 4), 1, F(-1, 4), -2, F(-1, 4), 1, F(1, 4)],
                    [0, F(-1, 4), 0, F(-1, 4), 0, F(1, 4), 0, F(1, 4)])
CORNER_ABOVE = _cm([0, 0, 0, 0, -3, 0, 0, 0],
                   [0, 0, F(-1, 2), 0, 0, 0, F(1, 2), 0])


def pi_product(C, q, digits=40):
    """(log Pi(C|q), truncation index N), as the Lambert series

        sum_k c_k log(1 - q^k) = -sum_n a_n q^n,  a_n = (1/n) sum_{d|n} d c_d.

    The exact coefficients are cached on C.  With n0 the first n whose a_n
    is nonzero, q^n0 is factored out and T = sum_{n0<=n<=N} a_n q^(n-n0)
    runs by Horner's scheme on Python ints at one fixed-point scale 2^Fb;
    no logarithm is taken, and a tiny result (the corner term at large K)
    keeps its relative digits.  N is the first index from one full period
    on whose tail, bounded through |a_n| <= B(n)(1 + ln n) with the
    majorant B(n) = sum_j max_r |C[j][r]| n^j, stays below
    10^(-digits-5) q^n0.

    The certificate: when sum |a_n| q^(n-n0) reaches 10^GUARD_DIGITS |T|,
    the series has cancelled into the guard digits and PrecisionError is
    raised.  Below that, Fb is wide enough that the rounding of the Horner
    steps stays under one unit of the working precision.
    """
    with working_dps(digits):
        q = to_mpf(q)
        if q < 0 or q >= 1:
            raise DomainError("pi_product requires 0 <= q < 1")
        if q == 0:
            return mpf(0), 0
        bounds = [max(abs(float(x)) for x in row) for row in C.rows]
        if not any(bounds):
            return mpf(0), C.period
        sums = C._lambert_sums(C.period)
        n0 = 1
        while not sums[n0]:
            n0 += 1
            if n0 == len(sums):
                sums = C._lambert_sums(2 * n0)
        N = _truncation(bounds, q, n0, max(C.period, n0), digits)
        # |T| >= |a_n0| / 10^GUARD_DIGITS, and |a_n0| >= 1 / (n0 D)
        Fb = mp.prec + GUARD_BITS + 2 * N.bit_length() + (n0 * C._den).bit_length()
        Fb = -(-Fb // 32) * 32           # few distinct scales; C keeps the last
        A = C._lambert_fixed(Fb, N)
        Q = to_fixed(q._mpf_, Fb)
        acc = mag = 0
        for n in range(N, n0 - 1, -1):
            acc = A[n] + (acc * Q >> Fb)
            mag = abs(A[n]) + (mag * Q >> Fb)
        if mag >= abs(acc) * 10 ** GUARD_DIGITS:
            ratio = mpmath.nstr(mpf(mag) / abs(acc), 3) if acc else "inf"
            raise PrecisionError(
                f"pi_product: the Lambert series at q = {mpmath.nstr(q, 8)} cancels "
                f"by {ratio}, past the {GUARD_DIGITS} guard digits")
        return -(q ** n0) * mpf((acc, -Fb)), N


def _truncation(bounds, q, n0, start, digits):
    """The least N >= start at which the majorant's tail
    sum_{n>N} B(n)(1 + ln n) q^(n-n0), bounded by its first term over one
    minus the ratio of its first two (the ratios fall with n), is below
    10^(-digits-5)."""
    _, man, exp, _ = q._mpf_
    lq = (math.log2(man) + exp) * math.log(2)          # ln q, also below 1e-308
    cut = -(digits + 5) * math.log(10)

    def log_term(n):                                   # ln B(n)(1 + ln n) q^(n-n0)
        B = sum(b * n ** j for j, b in enumerate(bounds))
        return math.log(B * (1 + math.log(n))) + (n - n0) * lq

    # each term is at least B(1) q^(n-n0), so no N below this one passes
    n = max(start, n0 - 1 + math.floor((cut - math.log(sum(bounds))) / lq))
    while True:
        t1, t2 = log_term(n + 1), log_term(n + 2)
        if t2 < t1 and t1 - math.log1p(-math.exp(t2 - t1)) < cut:
            return n
        n += 1


def t_of_q(q, digits=40):
    """Low-temperature variable map t(q) = sqrt(q) Pi(C_t|q); also z(q) above."""
    with working_dps(digits):
        q = to_mpf(q)
        if q == 0:
            return mpf(0)
        lg, _ = pi_product(COUPLING_VARIABLE, q, digits)
        return mpmath.sqrt(q) * mpmath.exp(lg)


def q_of_t(t, digits=40):
    """Inverse of t_of_q in closed form, through the elliptic modulus of t.

    With k = (2t/(1 - t^2))^2 (sinh^2 2K above T_c, 1/sinh^2 2K below) and
    its complement k' = sqrt((1 - 2t - t^2)(1 + 2t - t^2)(1 + k))/(1 - t^2),
    computed without forming 1 - k^2,

        q = exp(-(pi/2) agm(1, k') / agm(1, k)).

    The domain is 0 < t < sqrt(2) - 1 with q < Q_CUTOFF; anything else raises
    DomainError.  One forward product certifies the result: a relative
    defect |t_of_q(q) - t| / t above 10^(-digits) raises PrecisionError.
    """
    return _q_and_condition(t, digits)[0]


@lru_cache(maxsize=None)
def _t_max():
    """t_of_q(Q_CUTOFF), the edge of q_of_t's range, for its error message,
    which prints 8 digits."""
    return t_of_q(Q_CUTOFF, MIN_DIGITS)


def _q_and_condition(t, digits):
    """(q_of_t(t), d log q / d log t = 2 (agm(1, k')/k')^2 (1 + t^2)/(1 - t^2)),
    the factor that carries a rounding of t into q; it diverges at k' -> 0."""
    with working_dps(digits):
        t = to_mpf(t)
        if t <= 0:
            raise DomainError("q_of_t requires t > 0")
        minus, plus = 1 - 2 * t - t * t, 1 + 2 * t - t * t
        q = None
        if minus > 0:
            k = (2 * t / (1 - t * t)) ** 2
            kp = mpmath.sqrt(minus * plus * (1 + k)) / (1 - t * t)
            agm_kp = mpmath.agm(1, kp)
            q = mpmath.exp(-mpmath.pi / 2 * agm_kp / mpmath.agm(1, k))
        if q is None or q >= Q_CUTOFF:
            raise DomainError(
                f"t = {mpmath.nstr(t, 8)} is outside the invertible range "
                f"(needs t < {mpmath.nstr(_t_max(), 8)}, i.e. a coupling away from critical)"
            )
        defect = abs(t_of_q(q, digits) - t) / t
        if defect > tol(0, digits):
            raise PrecisionError(
                f"q_of_t: t_of_q(q) misses t = {mpmath.nstr(t, 8)} by a relative "
                f"{mpmath.nstr(defect, 3)}")
        return q, 2 * (agm_kp / kp) ** 2 * (1 + t * t) / (1 - t * t)


@dataclass(frozen=True, slots=True)
class FreeEnergyPieces:
    """Bulk, surface (per row/column, both faces), and corner free energies."""

    side: str          # "below" or "above" the critical temperature
    K: mpf
    q: mpf
    f_b: mpf
    f_s: mpf
    f_c: mpf
    f_b_sing: mpf
    f_s_sing: mpf
    f_c_sing: mpf
    f_b_reg: mpf
    f_s_reg: mpf
    errata_applied: bool
    digits: int


def free_energy_pieces(K, digits=40, apply_errata=True):
    """Free-energy pieces of the isotropic lattice at reduced coupling K.

    K must be bounded away from the critical coupling: q must stay inside
    the convergent range (DomainError), and d log q / d log t below
    10^GUARD_DIGITS (PrecisionError, within about 1e-14 of K_c).  With
    apply_errata=False the ordered-phase corner term keeps its original
    -log 2 constant (the value a naive finite-size extraction of -log Z
    yields); the default removes it.
    """
    with working_dps(digits):
        K = to_mpf(K)
        if K <= 0:
            raise DomainError("free_energy_pieces requires K > 0")
        z = mpmath.tanh(K)
        _, Kc = critical_coupling_isotropic()
        log2 = mpmath.log(mpf(2))
        side = "below" if K > Kc else "above"
        # below T_c q follows the dual t = e^(-2K) of z, above it z itself
        q, condition = _q_and_condition(mpmath.exp(-2 * K) if side == "below" else z, digits)
        if mpmath.log10(condition) >= GUARD_DIGITS:
            raise PrecisionError(f"free_energy_pieces: K = {mpmath.nstr(K, 8)} is too close to "
                                 f"critical; d log q / d log t = {mpmath.nstr(condition, 3)} "
                                 f"spends the {GUARD_DIGITS} guard digits")
        if side == "below":
            lg_b, _ = pi_product(BULK_BELOW, q, digits)
            lg_sA, _ = pi_product(SURFACE_BELOW_MAIN, q, digits)
            lg_sB, _ = pi_product(SURFACE_BELOW_HALFQ, mpmath.sqrt(q), digits)
            lg_c, _ = pi_product(CORNER_BELOW, q, digits)
            f_b_sing = mpmath.log(q) / 2 - lg_b
            f_b_reg = mpf(0)            # the ordered-phase product is complete
            f_s_sing = log2 - lg_sA - lg_sB
            f_c_sing = -lg_c - (mpf(0) if apply_errata else log2)
        else:
            lg_b, _ = pi_product(BULK_ABOVE, q, digits)
            lg_s, _ = pi_product(SURFACE_ABOVE, q, digits)
            lg_c, _ = pi_product(CORNER_ABOVE, q, digits)
            f_b_sing = -lg_b
            f_b_reg = -mpmath.log(2 * (1 + z ** 2) / (1 - z ** 2))
            f_s_sing = -lg_s
            f_c_sing = -lg_c
        # -log(1 - z^2)/2 exactly, without the digits that 1 - z^2 loses at large K
        f_s_reg = mpmath.log(mpmath.cosh(K))
        return FreeEnergyPieces(
            side=side, K=K, q=q,
            f_b=f_b_reg + f_b_sing,
            f_s=f_s_reg + f_s_sing,
            f_c=f_c_sing,
            f_b_sing=f_b_sing, f_s_sing=f_s_sing, f_c_sing=f_c_sing,
            f_b_reg=f_b_reg, f_s_reg=f_s_reg,
            errata_applied=apply_errata, digits=digits)
