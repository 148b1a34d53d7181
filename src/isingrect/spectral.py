"""Spectral solution of the homogeneous open-open rectangle.

The column-to-column transfer matrix of the open strip of even width M has
2M eigenvalues in reciprocal pairs (lambda, 1/lambda).  Writing
lambda_plus = cosh(gamma) = t+ z+ - t- z- cos(phi), the admissible angles phi
are the zeroes of the degree-M polynomial (in cos phi)

    P_M(phi) = cos(M phi) + (t+ cos(phi) - t- z+/z-) sin(M phi)/sin(phi).

Each interval ((k-1) pi/M, k pi/M), k = 2..M, holds exactly one real root,
with signs known in closed form at its ends.  The remaining, soft mode is
real in (0, pi/M) when P_M(0) > 0; otherwise, in the ordered phase, it is
the one root on the imaginary axis.  find_modes seeds each root by float bisection
inside its interval, polishes it by Newton at working precision, and keeps
it only when P_M changes sign within 10^(3 - dps) of it.  The imaginary
mode's exponentially small gap comes from the mode-ratio identity, never
from c - 1.  Modes are ordered by lambda_plus; the parity
sigma_mu = (-1)^(mu-1) selects the dominant branch alternately, and
prod_mu lambda_mu = t.

The partition function factorizes into an infinite-strip part (a closed
per-mode product) times det(1 + Y), where Y is an (M/2) x (M/2) matrix built
from Cauchy data over the mode constants c_mu = lambda_{mu,+}; Y carries
every finite-aspect-ratio correction and vanishes for long strips.  By
Sylvester's identity det(1 + Y) = det(I + C) for the M x M bipartite
Cauchy-like C, whose displacement diag(c) C - C diag(c) has rank 2:
residual_system eliminates I + C on those two generators in O(M^2), on
fixed-point Python ints, and carries the L-derivative (the strip Casimir
force) through the same loop.  Every pivot is at least 1, which certifies
the elimination.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from .lattice import HomogeneousCouplings
from .numerics import (
    GUARD_DIGITS,
    ConsistencyError,
    DomainError,
    PrecisionError,
    bracketed_root,
    log_det_bipartite_cauchy,
    signed_log,
    to_mpf,
    working_dps,
)


@dataclass(frozen=True)
class Mode:
    """One transfer-matrix mode.

    phi is |phi| for real angles and the positive imaginary part psi for the
    below-critical mode (kind == "imag").  gamma_hat = |log lambda| > 0,
    lam_hat = exp(gamma_hat) > 1, and lam = lam_hat^sigma is the signed
    eigenvalue.
    """

    kind: str
    phi: mpf
    c: mpf
    gamma_hat: mpf
    sigma: int
    lam_hat: mpf
    lam: mpf

    @property
    def phi_signed(self):
        """Signed angle (mpc on the imaginary axis)."""
        if self.kind == "imag":
            return mpc(0, self.sigma * self.phi)
        return self.sigma * self.phi


@dataclass(frozen=True)
class Spectrum:
    """The M modes of the strip of width M, ordered by lambda_plus, with the
    coupling record (HomogeneousCouplings) they were found from, at `digits`."""

    M: int
    couplings: HomogeneousCouplings
    modes: tuple
    digits: int

    @property
    def c(self):
        return [m.c for m in self.modes]

    @property
    def gamma_hat(self):
        return [m.gamma_hat for m in self.modes]

    @property
    def sigma(self):
        return [m.sigma for m in self.modes]


def char_poly(phi, couplings, M):
    """The mode polynomial P_M at real phi, or at phi = i psi passed as mpc,
    for the coupling record `couplings`; it reads t+ and B = t- z+/z-.

    The removable singularity at sin(phi) = 0 is evaluated through the limit
    sin(M phi)/sin(phi) -> M cos(M phi)/cos(phi).
    """
    tp, B = couplings.tp, couplings.B
    if isinstance(phi, mpc):
        if phi.real != 0:
            raise DomainError("phi must be real or purely imaginary")
        psi = phi.imag
        s = mpmath.sinh(psi)
        if s == 0:
            return (1 + (tp - B) * M) * mpf(1)
        return mpmath.cosh(M * psi) + (tp * mpmath.cosh(psi) - B) * mpmath.sinh(M * psi) / s
    phi = to_mpf(phi)
    s = mpmath.sin(phi)
    if abs(s) < mpf(10) ** (-mp.dps + 8):
        return mpmath.cos(M * phi) * (1 + (tp * mpmath.cos(phi) - B) * M / mpmath.cos(phi))
    return mpmath.cos(M * phi) + (tp * mpmath.cos(phi) - B) * mpmath.sin(M * phi) / s


def _float_seed(f, lo, hi, falling):
    """Bisect f in plain floats on (lo, hi), knowing that f is positive at lo
    when falling and negative otherwise; None when f is not finite there."""
    for _ in range(sys.float_info.mant_dig):
        mid = (lo + hi) / 2
        v = f(mid)
        if not math.isfinite(v):
            return None
        if (v > 0) == falling:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _polish(f, fd, lo, hi, seed, M, xtol):
    """A root of f in (lo, hi), bracketed to width xtol.

    Newton on fd, which returns (f, f') up to a positive factor, runs from
    the seed until its steps shrink below the precision.  Its root r is
    kept only when it lies in (lo, hi) and f changes sign across
    [r - xtol/2, r + xtol/2]; otherwise bracketed_root solves the bracket.
    """
    x = (lo + hi) / 2 if seed is None else mpf(seed)
    for _ in range(mp.prec.bit_length()):
        v, d = fd(x)
        if not d:
            break
        dx = v / d
        x -= dx
        if M * dx * dx < mp.eps:
            if lo < x < hi and f(x - xtol / 2) * f(x + xtol / 2) <= 0:
                return x
            break
    try:
        return bracketed_root(f, lo, hi, xtol)
    except DomainError as exc:
        # the signs at the ends are exact, so only rounding can equal them
        raise PrecisionError(
            "a mode lies closer to the end of its bracket than the working "
            "precision resolves") from exc


def find_modes(z, t, M, digits=40):
    """All M modes, ordered by lambda_plus ascending (the soft mode first).
    z and t form the coupling record at the working precision, and the
    returned Spectrum carries it.

    With B = t- z+/z-, the function Q = sin(phi) P_M(phi) equals
    sin(phi) cos(M phi) + (t+ cos(phi) - B) sin(M phi), which is
    R sin(M phi + theta) with theta = atan2(sin phi, t+ cos phi - B) in
    (0, pi).  So Q(k pi/M) = (-1)^k sin(k pi/M), and each interval
    ((k-1) pi/M, k pi/M), k = 2..M, holds a root; P_M has degree M in
    cos(phi), so it holds exactly one.  The soft mode is real, in (0, pi/M),
    iff P_M(0) = 1 + M (t+ - B) > 0; otherwise it is the one root phi = i psi
    on the imaginary axis, below psi_max = acosh((t+ z+ - 1)/(t- z-)), where
    lambda_plus = 1.

    Each root is seeded by bisecting Q in floats (sinh psi + (t+ cosh psi - B)
    tanh(M psi) on the imaginary axis, which does not overflow), then
    polished by Newton on the same form at working precision.  A root is
    kept only when char_poly changes sign within xtol = 10^(3 - dps) of it,
    so its bracket is no wider than xtol; else bracketed_root solves its
    interval.  The imaginary root can lie closer to psi_max than the working
    precision resolves, so its interval reaches xtol past psi_max.

    The imaginary mode's gap is exponentially small in M, so it is taken
    from the mode-ratio identity, sinh(gamma_hat) = |z-| sinh(psi) /
    sinh(M psi), and c = 1 + 2 sinh^2(gamma_hat/2); acosh(c) keeps no
    digit of a gap below 10^(-dps/2), where c rounds to 1.  The real modes
    use gamma_hat = acosh(c).
    """
    if M < 2 or M % 2:
        raise DomainError("the spectral route requires even M >= 2")
    with working_dps(digits):
        cp = HomogeneousCouplings(to_mpf(z), to_mpf(t))
        zp, zm, tp, tm, B = cp.zp, cp.zm, cp.tp, cp.tm, cp.B
        # z- = (z - 1/z)/2 cancels about log10(z+/|z-|) digits, and t- alike;
        # every later step inherits the loss, at any precision
        if max(zp / -zm, tp / -tm) > 10 ** GUARD_DIGITS:
            raise PrecisionError(
                f"z or t lies within 10^-{GUARD_DIGITS} of 1: forming z- or t- "
                "would cancel more digits than the guard holds")
        p0 = 1 + M * (tp - B)
        if abs(p0) <= M * (tp + B) * mp.eps:
            raise PrecisionError(
                "the soft mode sits at phi = 0 to working precision; "
                "increase the precision")
        xtol = mpf(10) ** (-(mp.dps - 3))
        ftp, fB = float(tp), float(B)

        def f_real(phi):
            return char_poly(phi, cp, M)

        def fd_real(phi):
            c1, s1 = mpmath.cos_sin(phi)
            cM, sM = mpmath.cos_sin(M * phi)
            b = tp * c1 - B
            return s1 * cM + b * sM, (c1 + M * b) * cM - (M + tp) * s1 * sM

        def q_float(phi):
            return math.sin(phi) * math.cos(M * phi) + (ftp * math.cos(phi) - fB) * math.sin(M * phi)

        modes = []
        if p0 < 0:
            hi = mpmath.acosh((tp * zp - 1) / (tm * zm)) + xtol

            def f_imag(psi):
                return char_poly(mpc(0, psi), cp, M)

            def fd_imag(psi):
                sh, ch, th = mpmath.sinh(psi), mpmath.cosh(psi), mpmath.tanh(M * psi)
                b = tp * ch - B
                return sh + b * th, ch + tp * sh * th + M * b * (1 - th * th)

            def g_float(psi):
                return math.sinh(psi) + (ftp * math.cosh(psi) - fB) * math.tanh(M * psi)

            seed = _float_seed(g_float, 0.0, float(hi), False)
            psi = _polish(f_imag, fd_imag, mpf(0), hi, seed, M, xtol)
            gh = mpmath.asinh(-zm * mpmath.sinh(psi) / mpmath.sinh(M * psi))
            modes.append(("imag", psi, 1 + 2 * mpmath.sinh(gh / 2) ** 2, gh))
        for k in range(2 if p0 < 0 else 1, M + 1):
            lo, hi = mpmath.pi * (k - 1) / M, mpmath.pi * k / M
            seed = _float_seed(q_float, math.pi * (k - 1) / M, math.pi * k / M, k % 2 == 1)
            phi = _polish(f_real, fd_real, lo, hi, seed, M, xtol)
            c = tp * zp - tm * zm * mpmath.cos(phi)
            if c < 1:
                raise PrecisionError("mode with lambda_plus < 1; precision too low")
            modes.append(("real", phi, c, mpmath.acosh(c)))
        out = []
        for i, (kind, phi, c, gh) in enumerate(modes):
            sg = 1 if i % 2 == 0 else -1
            lam_hat = mpmath.exp(gh)
            out.append(Mode(kind=kind, phi=phi, c=c, gamma_hat=gh, sigma=sg, lam_hat=lam_hat,
                            lam=lam_hat if sg > 0 else mpmath.exp(-gh)))
        for a, b in zip(out, out[1:]):
            if abs(a.c - b.c) < mpf(10) ** (-mpf(digits) / 2):
                raise PrecisionError(
                    "nearly degenerate modes; increase the working precision"
                )
        # alternating sum of gamma_hat telescopes to log t; a miss here means
        # a root was dropped or duplicated
        defect = abs(sum(m.sigma * m.gamma_hat for m in out) - mpmath.log(cp.t))
        if defect > mpf(10) ** (-mpf(digits) / 2):
            raise PrecisionError(f"mode-product identity violated by {defect}")
        return Spectrum(M=M, couplings=cp, modes=tuple(out), digits=digits)


@dataclass
class ResidualSystem:
    """The finite-length correction det(1 + Y) at one strip length L.

    The modes split by parity: odd mu = 0, 2, ... (sigma = +1) and even
    mu = 1, 3, ... (sigma = -1).  With w_mu = lam_hat_mu^(-L) v_mu,

        Y = -A B,   A_eo = w_e / (c_e - c_o),   B_oe = w_o / (c_o - c_e),

    where v_mu = p_mu (t z^-sigma - lam)/(t z^sigma - lam) and p_mu =
    prod_{nu != mu} (c_mu - c_nu)^(-sigma_mu sigma_nu) is the regularized
    alternating Cauchy product.  log_det = log det(1 + Y) and dlog_det, its
    L-derivative, come from one generator elimination of the M x M I + C
    with det(I + C) = det(1 + Y) (log_det_bipartite_cauchy), which also
    records min_delta, the smallest pivot - 1 after the first, >= 0 in
    exact arithmetic, and width, the fraction bits of its fixed-point
    arithmetic.  Y is built only when read, by the dense product.
    """

    M: int
    L: mpf
    c: list
    sigma: list
    gamma_hat: list
    v: list
    log_d_oe: mpf
    log_det: mpf
    dlog_det: mpf
    min_delta: mpf
    width: int
    digits: int

    @property
    def odd(self):
        return list(range(0, self.M, 2))

    @property
    def even(self):
        return list(range(1, self.M, 2))

    @property
    def Y(self):
        """The dense (M/2) x (M/2) matrix Y = -A B; no route reads it."""
        with working_dps(self.digits):
            w = [mpmath.exp(-self.L * g) * v for g, v in zip(self.gamma_hat, self.v)]
            h = self.M // 2
            A = mpmath.matrix(h, h)
            B = mpmath.matrix(h, h)
            for a, e in enumerate(self.even):
                for b, o in enumerate(self.odd):
                    A[a, b] = w[e] / (self.c[e] - self.c[o])
                    B[b, a] = w[o] / (self.c[o] - self.c[e])
            return -(A * B)


def _product(factors, scale):
    """The product of f 2^-scale over the integers f, as an mpf: a running
    mantissa cut back to the working precision and 8 more bits."""
    bits = mp.prec + 8
    man, exp = 1, 0
    for f in factors:
        man *= f
        cut = man.bit_length() - bits
        if cut > 0:
            man >>= cut
            exp += cut
    return mpf((man, exp - scale * len(factors)))


def residual_system(spectrum, L, digits=None):
    """Assemble the residual Cauchy system at (real) strip length L >= 0,
    with log det(1 + Y) and its L-derivative."""
    digits = digits or spectrum.digits
    M, z, t = spectrum.M, spectrum.couplings.z, spectrum.couplings.t
    with working_dps(digits):
        L = to_mpf(L)
        if L < 0:
            raise DomainError("residual system requires L >= 0")
        cs = spectrum.c
        sig = spectrum.sigma
        gh = spectrum.gamma_hat
        # every c_mu >= 1 has a bit at or above 2^(1 - prec), so the
        # integers c_mu 2^prec and their differences are exact
        prec = mp.prec
        C = [to_fixed(x._mpf_, prec) for x in cs]
        tol = to_fixed((mpf(10) ** (-mpf(digits) / 2))._mpf_, prec)
        # p_mu = (product over the other parity) / (product over the same
        # parity), with the sign of the differences that are negative
        cross, p = [], []
        for mu in range(M):
            other, same, sign = [], [], 1
            for nu in range(M):
                if nu == mu:
                    continue
                d = C[mu] - C[nu]
                if d < 0:
                    d, sign = -d, -sign
                if d < tol:
                    raise PrecisionError("coincident mode constants c_mu")
                (other if (nu - mu) % 2 else same).append(d)
            cross.append(_product(other, prec))
            p.append(sign * cross[-1] / _product(same, prec))
        v = []
        for mu, md in enumerate(spectrum.modes):
            s = sig[mu]
            num = t * z ** (-s) - md.lam
            den = t * z ** s - md.lam
            if den == 0:
                raise DomainError("v_mu denominator vanished")
            v.append(p[mu] * num / den)
        log_d_oe = mpmath.log(mpmath.fprod(cross[0::2]))
        w = [mpmath.exp(-L * g) * x for g, x in zip(gh, v)]
        log_det, dlog_det, least, width = log_det_bipartite_cauchy(cs, w, gh)
        return ResidualSystem(
            M=M, L=L, c=cs, sigma=sig, gamma_hat=gh, v=v, log_d_oe=log_d_oe,
            log_det=log_det, dlog_det=dlog_det, min_delta=least, width=width,
            digits=digits)


def log_zsres(rs):
    """log det(1 + Y): the strip residual part of log Z."""
    return rs.log_det


def _soft_ratio(md, z, t, M):
    """The mode ratio num/den of log_strip_part in a form that does not
    cancel at small angle:

        num/den = -s^2 / (8 t z cosh^2(gamma_hat/2) S),
        S = sum_{j<M} (alpha f((j+1) phi) - beta f(j phi))^2,

    with alpha = 1/((1 - t)(1 + z)), beta = 1/((1 + t)(1 - z)), f = sin and
    s = sin phi on a real mode, f = sinh and s = sinh psi on the imaginary
    one.  S is a sum of squares; each term cancels only near the psi where
    e^psi = beta/alpha, and a sum cancelled by more than GUARD_DIGITS digits
    raises PrecisionError.
    """
    alpha = 1 / ((1 - t) * (1 + z))
    beta = 1 / ((1 + t) * (1 - z))
    f = mpmath.sinh if md.kind == "imag" else mpmath.sin
    vals = [f(j * md.phi) for j in range(M + 1)]
    S = size = mpf(0)
    for a, b in zip(vals[1:], vals):
        S += (alpha * a - beta * b) ** 2
        size += (alpha * abs(a) + beta * abs(b)) ** 2
    if size > 10 ** GUARD_DIGITS * S:
        raise PrecisionError("the soft mode's normalisation cancels in both forms")
    return -vals[1] ** 2 / (8 * t * z * mpmath.cosh(md.gamma_hat / 2) ** 2 * S)


def log_C3(z, zm, tm, L, M):
    """log C3, C3 = z^M (2/z_minus)^(LM) (2/(t_minus z_minus))^(M^2/2).

    zm and tm are the negative z_minus and t_minus of 0 < z, t < 1, so C3 is
    positive for integer L and even M.
    """
    return M * mpmath.log(z) + L * M * mpmath.log(abs(2 / zm)) \
        + (mpf(M) ** 2 / 2) * mpmath.log(2 / (tm * zm))


def log_strip_part(spectrum, rs):
    """log of the infinite-strip factor [C3 d_oe^2 prod_mu N_mu]^(1/2) at
    the strip length of the residual system rs.

    The per-mode factor is
        N_mu = ((t+ z+ - c)^2 - t-^2 z-^2)/(M lamm_hat^2 + z+ c - t+)
               * lamm_hat / v_mu * lam_hat^L,
    with the numerator taken as -(t- z- sin phi)^2, or (t- z- sinh psi)^2 on
    the imaginary axis.  Near the coupling where the soft mode crosses
    phi = 0 the denominator vanishes like phi^2; when it cancels more than
    GUARD_DIGITS digits the soft mode's ratio comes from _soft_ratio
    instead, and any other mode raises PrecisionError.
    Signs are tracked and the bracket is required to be positive for
    integer L (positivity of Z^2 / det(1+Y)^2).
    """
    M, cp, L = spectrum.M, spectrum.couplings, rs.L
    zp, zm, tp, tm = cp.zp, cp.zm, cp.tp, cp.tm
    with working_dps(spectrum.digits):
        lg = log_C3(cp.z, zm, tm, L, M) + 2 * rs.log_d_oe
        sign = 1
        for mu, md in enumerate(spectrum.modes):
            lamm_hat = mpmath.sinh(md.gamma_hat)
            # (t+ z+ - c)^2 - (t- z-)^2 without the cancellation at small phi
            if md.kind == "imag":
                num = (tm * zm * mpmath.sinh(md.phi)) ** 2
            else:
                num = -(tm * zm * mpmath.sin(md.phi)) ** 2
            parts = (M * lamm_hat ** 2, zp * md.c, -tp)
            den = sum(parts)
            # den vanishes like phi^2 where the soft mode crosses phi = 0
            if sum(abs(p) for p in parts) <= 10 ** GUARD_DIGITS * abs(den):
                ratio = num / den
            elif mu == 0:
                ratio = _soft_ratio(md, cp.z, cp.t, M)
            else:
                raise PrecisionError(
                    f"the normalisation of mode {mu} cancels more digits than "
                    "the guard holds; its angle is too close to 0")
            term = ratio * lamm_hat / rs.v[mu]
            tl, ts = signed_log(term)
            lg += tl + L * md.gamma_hat
            sign *= ts
        if L == int(L) and sign <= 0:
            raise ConsistencyError("squared strip factor came out negative")
        return lg / 2


def logZ_spectral(L, M, z, t, digits=40):
    """log Z of the homogeneous open rectangle from the factorized form."""
    with working_dps(digits):
        z, t = to_mpf(z), to_mpf(t)
        spectrum = find_modes(z, t, M, digits)
        rs = residual_system(spectrum, L, digits)
        return log_strip_part(spectrum, rs) + log_zsres(rs)
