"""Free-energy bookkeeping: strip decomposition, Casimir force, corner term.

The reduced free energy F = -log Z of the homogeneous open rectangle splits
exactly into F = F_strip + F_strip_res with F_strip_res = -log det(1 + Y).
The residual part decays exponentially in L and carries the strip Casimir
force

    force_strip = -(1/M) d/dL F_strip_res
                = (1/M) sum_k (d delta_k/dL) / (1 + delta_k),

where 1 + delta_k are the pivots of the generator elimination of
det(1 + Y) (spectral.residual_system), differentiated in forward mode with
dw_mu/dL = -gamma_hat_mu w_mu.  The corner free energy is extracted from F_strip on growing squares
after subtracting the bulk and surface products.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .lattice import HomogeneousCouplings, critical_coupling_isotropic
from .numerics import DomainError, nstr, to_mpf, working_dps
from .qseries import free_energy_pieces
from .spectral import find_modes, log_strip_part, log_zsres, residual_system

CSV_COLUMNS = ["Kh", "Kv", "L", "M", "logZ", "F", "F_strip", "F_strip_res", "casimir_strip"]


@dataclass(frozen=True, slots=True)
class ThermoReport:
    Kh: mpf
    Kv: mpf
    L: int
    M: int
    logZ: mpf
    F: mpf
    F_strip: mpf
    F_strip_res: mpf
    casimir_strip: mpf
    digits: int = 40

    def csv_row(self):
        """The fields named in CSV_COLUMNS, in that order, at `digits`."""
        vals = [getattr(self, name) for name in CSV_COLUMNS]
        return [nstr(v if isinstance(v, mpf) else mpf(v), self.digits) for v in vals]


def report(L, M, Kh, Kv, digits=40):
    """Full spectral-route evaluation of one rectangle."""
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(Kh, Kv, digits)
        spectrum = find_modes(hom.z, hom.t, M, digits)
        rs = residual_system(spectrum, L, digits)
        lz_res = log_zsres(rs)
        logZ = log_strip_part(spectrum, rs) + lz_res
        F = -logZ
        F_strip_res = -lz_res
        return ThermoReport(
            Kh=to_mpf(Kh), Kv=to_mpf(Kv), L=L, M=M, logZ=logZ, F=F,
            F_strip=F - F_strip_res, F_strip_res=F_strip_res,
            casimir_strip=casimir_force_strip(L, M, Kh, Kv, digits, rs=rs),
            digits=digits)


def casimir_force_strip(L, M, Kh, Kv, digits=40, rs=None):
    """Analytic L-derivative of the strip residual free energy, per area M.

    L may be any positive real; the derivative acts on the lam_hat^(-L)
    decay of each w_mu only, and comes from the residual system's own
    elimination.
    """
    with working_dps(digits):
        if rs is None:
            hom = HomogeneousCouplings.from_K(Kh, Kv, digits)
            spectrum = find_modes(hom.z, hom.t, M, digits)
            rs = residual_system(spectrum, L, digits)
        return rs.dlog_det / M


@dataclass(frozen=True)
class CornerExtraction:
    f_c: mpf
    residual: mpf      # size of the last extrapolation step
    monotone: bool     # False flags a non-converging (too critical) extraction
    sizes: tuple


def extract_corner(K, sizes, digits=40, apply_errata=True):
    """Corner free energy from F_strip(L, L) on the given square sizes.

    F_strip(L, L) - L^2 f_b - 2 L f_s converges to the corner constant with
    exponentially small error; the last three sizes are extrapolated
    geometrically (two-step Richardson).  In the ordered phase the raw
    constant includes the two-phase degeneracy -log 2; with apply_errata=True
    it is removed, matching the default product convention.
    """
    if len(sizes) < 2:
        raise DomainError("corner extraction needs at least two sizes")
    sizes = sorted(int(s) for s in sizes)
    with working_dps(digits):
        K = to_mpf(K)
        pieces = free_energy_pieces(K, digits)
        hom = HomogeneousCouplings.from_K(K, K, digits)
        consts = []
        for s in sizes:
            if s % 2:
                raise DomainError("corner extraction sizes must be even")
            spectrum = find_modes(hom.z, hom.t, s, digits)
            rs = residual_system(spectrum, s, digits)
            F_strip = -log_strip_part(spectrum, rs)
            consts.append(F_strip - s * s * pieces.f_b - 2 * s * pieces.f_s)
        if len(consts) >= 3:
            c1, c2, c3 = consts[-3:]
            d1, d2 = c2 - c1, c3 - c2
            monotone = abs(d2) < abs(d1)
            if d1 != d2 and d1 != 0:
                r = d2 / d1
                fc = c3 + d2 * r / (1 - r)
            else:
                fc = c3
            residual = abs(fc - c3)
        else:
            fc = consts[-1]
            residual = abs(consts[-1] - consts[-2])
            monotone = abs(consts[-1] - consts[-2]) > 0
        _, Kc = critical_coupling_isotropic()
        if apply_errata and K > Kc:
            fc = fc + mpmath.log(mpf(2))  # remove the two-phase constant
        return CornerExtraction(f_c=fc, residual=residual, monotone=monotone,
                                sizes=tuple(sizes))
