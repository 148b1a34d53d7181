"""Cross-path and identity validation battery behind `isingrect validate`.

Each check computes a defect and compares it against its tolerance.  The
second formulas that only these checks need live here, not in the route
modules: the dense 2M x 2M transfer matrix (build_T2, whose spectrum must
be the modes' lambda^(+-1)), the closed L = 0 product of det(1 + Y)
(log_zsres_closed_L0), the finite-difference Casimir force
(casimir_force_fd), the period-4 and squared-argument rewrites of the
paramagnetic bulk and corner product tables (BULK_ABOVE_P4,
CORNER_ABOVE_QSQ), and the factor-by-factor q-product that checks the
Lambert series of qseries.pi_product (pi_product_per_factor).  Two
tolerance families coexist:

* relative cross-path comparisons scale with the requested precision
  (the 10^(k - digits) family);
* the spectral identity and residual-equivalence checks carry the absolute
  acceptance-grade bounds of the default 40-digit precision.  Running the
  battery at reduced precision therefore fails visibly (exit code 3) instead
  of silently degrading, by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from . import brute_force, cylinder, effspin, pfaffian, qseries, spectral, thermo
from .lattice import (
    CouplingGrid,
    HomogeneousCouplings,
    LatticeSpec,
    critical_coupling_isotropic,
    pm,
)
from .numerics import DomainError, to_mpf, tol, working_dps
from .qseries import PeriodicCoeffMatrix

# equivalent forms of qseries.BULK_ABOVE at q and of qseries.CORNER_ABOVE
# at q^2
BULK_ABOVE_P4 = PeriodicCoeffMatrix(((0, 2, -4, 2),
                                     (0, -1, 0, 1)))
CORNER_ABOVE_QSQ = PeriodicCoeffMatrix(((0, 0, -3, 0),
                                        (0, -1, 0, 1)))

# every table that free_energy_pieces and t_of_q evaluate
QSERIES_TABLES = (qseries.COUPLING_VARIABLE, qseries.BULK_BELOW,
                  qseries.SURFACE_BELOW_MAIN, qseries.SURFACE_BELOW_HALFQ,
                  qseries.CORNER_BELOW, qseries.BULK_ABOVE, qseries.SURFACE_ABOVE,
                  qseries.CORNER_ABOVE)


def pi_product_per_factor(C, q, digits=40):
    """(log Pi(C|q), truncation index), summed factor by factor: one
    c_k log(1 - q^k) per term, the reference for qseries.pi_product's
    Lambert series.  Terms are summed until the exponent-magnitude majorant
    times q^k drops below 10^(-digits-5); at least one full period is
    always evaluated.  The sum is absolute, so a result far below 1 (the
    corner product at large K) keeps only the digits that 1 - q^k kept.
    """
    with working_dps(digits):
        q = to_mpf(q)
        if q < 0 or q >= 1:
            raise DomainError("pi_product requires 0 <= q < 1")
        if q == 0:
            return mpf(0), 0
        rows = [[mpf(x.numerator) / x.denominator for x in map(Fraction, row)]
                for row in C.rows]
        bounds = [max(abs(x) for x in row) for row in rows]
        p = C.period
        cutoff = mpf(10) ** (-(digits + 5))
        total = mpf(0)
        k = 0
        qk = mpf(1)
        while True:
            k += 1
            qk *= q
            r = k % p
            ck = sum(row[r] * k ** j for j, row in enumerate(rows))
            if ck:
                total += ck * mpmath.log(1 - qk)
            if k >= p and sum(b * k ** j for j, b in enumerate(bounds)) * qk < cutoff:
                return total, k


@dataclass
class CheckResult:
    name: str
    defect: mpf
    tolerance: mpf
    passed: bool
    note: str = ""


def _result(name, defect, tolerance, note=""):
    return CheckResult(name=name, defect=defect, tolerance=tolerance,
                       passed=bool(defect <= tolerance), note=note)


def _K_set():
    _, Kc = critical_coupling_isotropic()
    return [("K0.2", mpf("0.2"), mpf("0.2")),
            ("Kc", Kc, Kc),
            ("K0.7", mpf("0.7"), mpf("0.7")),
            ("aniso", mpf("0.2"), mpf("0.6"))]


def check_four_paths(digits):
    """Oracle, Pfaffian, cylinder, and spectral log Z agree pairwise, and
    long cylinders agree with the spectral route."""
    out = []
    tol = mpf(10) ** -10
    for (L, M) in [(2, 2), (2, 4), (3, 4), (4, 4), (4, 6)]:
        for label, Kh, Kv in _K_set():
            grid = CouplingGrid.from_scalars(LatticeSpec(L, M), Kh, Kv)
            with working_dps(digits):
                vals = [pfaffian.logZ_pfaffian(grid, digits),
                        cylinder.logZ_cylinder(grid, digits)]
                hom = HomogeneousCouplings.from_K(Kh, Kv, digits)
                vals.append(spectral.logZ_spectral(L, M, hom.z, hom.t, digits))
                if brute_force.column_length(grid.spec) <= brute_force.MAX_COLUMN:
                    vals.append(brute_force.brute_force_logZ(grid, digits).logZ)
                spread = (max(vals) - min(vals)) / abs(vals[0])
            out.append(_result(f"fourpath-{L}x{M}-{label}", spread, tol))
    # disordered couplings exercise the grid-capable paths
    import random

    rng = random.Random(42)
    L, M = 3, 4
    with working_dps(digits):
        kh = [[mpf(rng.randint(10, 80)) / 100 if l < L - 1 else mpf(0)
               for _ in range(M)] for l in range(L)]
        kv = [[mpf(rng.randint(10, 80)) / 100 for _ in range(M)] for _ in range(L)]
        grid = CouplingGrid(LatticeSpec(L, M, "periodic"), kh, kv, digits)
        vals = [brute_force.brute_force_logZ(grid, digits).logZ,
                pfaffian.logZ_pfaffian(grid, digits),
                cylinder.logZ_cylinder(grid, digits)]
        spread = (max(vals) - min(vals)) / abs(vals[0])
    out.append(_result("fourpath-disorder-3x4", spread, tol))
    # cylinders long enough that Gram-Schmidt skips columns, against the
    # spectral route at 2.5x the digits
    worst = mpf(0)
    ref_digits = 5 * digits // 2
    for L, M, K in [(64, 16, "0.2"), (64, 16, "0.35"), (48, 12, "0.35")]:
        grid = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K, digits)
        with working_dps(ref_digits):
            hom = HomogeneousCouplings.from_K(K, K, ref_digits)
            ref = spectral.logZ_spectral(L, M, hom.z, hom.t, ref_digits)
            worst = max(worst, abs(cylinder.logZ_cylinder(grid, digits) - ref) / abs(ref))
    out.append(_result("cylinder-long-vs-spectral", worst, mpf(10) ** -digits))
    return out


@dataclass
class T2System:
    T2: mpmath.matrix
    T_plus: mpmath.matrix
    T_minus: mpmath.matrix
    digits: int


def build_T2(z, t, M, digits=40):
    """Symmetric 2M x 2M block transfer matrix and its two M x M blocks."""
    with working_dps(digits):
        z, t = to_mpf(z), to_mpf(t)
        zp, zm = pm(z)
        tp, tm = pm(t)
        a = tp * zp
        b = -tp * zm
        a0p = tp * zp + (1 - tp) * (zp + 1) / 2
        a0m = tp * zp + (1 - tp) * (zp - 1) / 2
        b0 = -(1 + tp) * zm / 2
        c = -tm * zm / 2
        d_plus = tm * (1 + zp) / 2
        d_minus = -tm * (1 - zp) / 2
        Tplus = mpmath.matrix(M, M)
        for i in range(M):
            Tplus[i, i] = a
            if i + 1 < M:
                Tplus[i, i + 1] = c
                Tplus[i + 1, i] = c
        Tplus[0, 0] = a0p
        Tplus[M - 1, M - 1] = a0m
        Tminus = mpmath.matrix(M, M)
        for i in range(M):
            Tminus[i, M - 1 - i] = b          # anti-diagonal
            if 0 <= M - 2 - i < M:
                Tminus[i, M - 2 - i] = d_minus
            if 0 <= M - i < M:
                Tminus[i, M - i] = d_plus
        Tminus[0, M - 1] = b0
        Tminus[M - 1, 0] = b0
        T2 = mpmath.matrix(2 * M, 2 * M)
        for i in range(M):
            for j in range(M):
                T2[i, j] = Tplus[i, j]
                T2[M + i, M + j] = Tplus[i, j]
                T2[i, M + j] = Tminus[i, j]
                T2[M + i, j] = Tminus[i, j]
        return T2System(T2=T2, T_plus=Tplus, T_minus=Tminus, digits=digits)


def check_spectral_identities(digits, M_list=(4, 6, 8, 16, 32)):
    """Mode residuals, the sin(M phi)/sin(phi) identity, prod lambda = t,
    and the dense transfer-matrix eigenvalue multiset."""
    out = []
    _, Kc = critical_coupling_isotropic()
    for M in M_list:
        for label, K in [("above", mpf("0.3")), ("crit", Kc), ("below", mpf("0.6"))]:
            hom = HomogeneousCouplings.from_K(K, K, digits)
            with working_dps(digits):
                sp = spectral.find_modes(hom.z, hom.t, M, digits)
                zm = (hom.z - 1 / hom.z) / 2
                res = mpf(0)
                d44 = mpf(0)
                for md in sp.modes:
                    phi = md.phi_signed
                    res = max(res, abs(spectral.char_poly(phi, hom.z, hom.t, M)))
                    # sin(M phi)/sin(phi) = -z_minus/lambda_minus at every mode
                    lamm = mpmath.sinh(md.sigma * md.gamma_hat)
                    if md.kind == "imag":
                        lhs = mpmath.sinh(M * md.phi) / mpmath.sinh(md.phi)
                    else:
                        lhs = mpmath.sin(M * phi) / mpmath.sin(phi)
                    # relative defect: the sides diverge with the soft gap
                    d44 = max(d44, abs(lhs * lamm / (-zm) - 1))
                prodlam = abs(mpmath.exp(
                    sum(m.sigma * m.gamma_hat for m in sp.modes)) - hom.t)
            out.append(_result(f"charpoly-residual-M{M}-{label}", res, mpf(10) ** -30))
            out.append(_result(f"mode-ratio-identity-M{M}-{label}", d44, mpf(10) ** -30))
            out.append(_result(f"prodlambda-M{M}-{label}", prodlam, mpf(10) ** -30))
            if M <= 8:
                with working_dps(digits):
                    t2 = build_T2(hom.z, hom.t, M, digits)
                    eigs = sorted(mp.eigsy(t2.T2, eigvals_only=True))
                    lams = sorted([m.lam for m in sp.modes]
                                  + [1 / m.lam for m in sp.modes])
                    dm = max(abs(a - b) for a, b in zip(lams, eigs))
                out.append(_result(f"t2-multiset-M{M}-{label}", dm, mpf(10) ** -25))
    return out


def log_zsres_closed_L0(spectrum, digits=None):
    """Closed product for det(1 + Y) at L = 0; the overall sign is fixed
    positive (it depends only on index bookkeeping)."""
    digits = digits or spectrum.digits
    M, z, t = spectrum.M, spectrum.z, spectrum.t
    with working_dps(digits):
        lam = [m.lam for m in spectrum.modes]
        sig = spectrum.sigma
        zm = pm(z)[1]
        odd = list(range(0, M, 2))
        even = list(range(1, M, 2))
        lg = (M // 2) * mpmath.log(abs(2 * t * zm))
        for o in odd:
            for e in even:
                lg += mpmath.log(abs(lam[o] - lam[e]))
        for mu in range(M):
            lg -= mpmath.log(abs(t * z ** sig[mu] - lam[mu]))
        for group in (odd, even):
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    lg -= mpmath.log(abs(1 - lam[group[i]] * lam[group[j]]))
        return lg


def check_residual_equivalences(digits):
    """det(1 + Y) against the spin-model sum, the closed L=0 product, and
    the long-strip decay."""
    out = []
    K = mpf("0.35")
    hom = HomogeneousCouplings.from_K(K, K, digits)
    with working_dps(digits):
        for M in (4, 6, 8, 10, 12):
            sp = spectral.find_modes(hom.z, hom.t, M, digits)
            for L in (mpf(0), mpf(1), mpf("2.5"), mpf(10)):
                rs = spectral.residual_system(sp, L, digits)
                det1y = mpmath.exp(spectral.log_zsres(rs))
                zeff = effspin.z_eff(effspin.build_eff_model(rs))
                out.append(_result(
                    f"detY-vs-effspin-M{M}-L{mpmath.nstr(L, 3)}",
                    abs(det1y - zeff) / zeff, mpf(10) ** -8))
        for M in (4, 6, 8, 10, 12):
            sp = spectral.find_modes(hom.z, hom.t, M, digits)
            rs = spectral.residual_system(sp, 0, digits)
            a = spectral.log_zsres(rs)
            b = log_zsres_closed_L0(sp, digits)
            out.append(_result(f"detY-vs-closedL0-M{M}",
                               abs(mpmath.expm1(a - b)), mpf(10) ** -8))
        hom3 = HomogeneousCouplings.from_K(mpf("0.3"), mpf("0.3"), digits)
        sp = spectral.find_modes(hom3.z, hom3.t, 8, digits)
        rs = spectral.residual_system(sp, 80, digits)
        out.append(_result("detY-decay-LoverM10",
                           abs(spectral.log_zsres(rs)), mpf(10) ** -8))
    return out


def casimir_force_fd(L, M, Kh, Kv, digits=40, dL=mpf("1e-4")):
    """Central finite difference in L of -log det(1 + Y), per area M."""
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(Kh, Kv, digits)
        spectrum = spectral.find_modes(hom.z, hom.t, M, digits)
        lo = spectral.log_zsres(spectral.residual_system(spectrum, to_mpf(L) - dL, digits))
        hi = spectral.log_zsres(spectral.residual_system(spectrum, to_mpf(L) + dL, digits))
        return (hi - lo) / (2 * dL) / M


def check_casimir(digits):
    """Analytic force vs central difference, and vs the spin-model
    magnetization."""
    out = []
    _, Kc = critical_coupling_isotropic()
    with working_dps(digits):
        for M in (4, 8, 12):
            for label, K in [("K0.3", mpf("0.3")), ("Kc", Kc), ("K0.6", mpf("0.6"))]:
                L = 8
                an = thermo.casimir_force_strip(L, M, K, K, digits)
                fd = casimir_force_fd(L, M, K, K, digits)
                out.append(_result(f"casimir-fd-M{M}-{label}",
                                   abs(an - fd) / abs(an), mpf(10) ** -6))
                hom = HomogeneousCouplings.from_K(K, K, digits)
                sp = spectral.find_modes(hom.z, hom.t, M, digits)
                rs = spectral.residual_system(sp, L, digits)
                meff = effspin.magnetization_eff(effspin.build_eff_model(rs))
                out.append(_result(f"casimir-effspin-M{M}-{label}",
                                   abs(an + meff), mpf(10) ** -8))
    return out


def check_qseries(digits):
    """Round trip q <-> t, equivalent product forms, the Lambert series
    against the factor-by-factor product, and corner extraction."""
    out = []
    with working_dps(digits):
        # d log q / d log t reaches 3e10 at q = 0.85, so t is made 20 digits
        # beyond the inversion: at `digits`, t_of_q's own truncation (about
        # 1e-45 at 40 digits) would come back amplified to 3e-35
        worst = mpf(0)
        for qs in ("1e-30", "0.01", "0.05", "0.1", "0.2", "0.25", "0.3", "0.4",
                   "0.5", "0.85"):
            q = mpf(qs)
            back = qseries.q_of_t(qseries.t_of_q(q, digits + 20), digits)
            worst = max(worst, abs(back - q) / q)
        out.append(_result("qseries-roundtrip", worst, tol(0, digits)))
        # the rewrites check the transcribed tables, so they run on the
        # per-factor reference, apart from the Lambert evaluator
        worst8 = mpf(0)
        for qs in ("0.01", "0.05", "0.1", "0.2", "0.3", "0.4", "0.5"):
            q = mpf(qs)
            a, _ = pi_product_per_factor(qseries.BULK_ABOVE, q, digits)
            b, _ = pi_product_per_factor(BULK_ABOVE_P4, q, digits)
            worst8 = max(worst8, abs(a - b))
            a, _ = pi_product_per_factor(qseries.CORNER_ABOVE, q, digits)
            b, _ = pi_product_per_factor(CORNER_ABOVE_QSQ, q * q, digits)
            worst8 = max(worst8, abs(a - b))
        out.append(_result("qseries-product-forms", worst8, mpf(10) ** -20))
        # each table's Lambert series against its factors at 2.5x the digits
        worst = mpf(0)
        for qs in ("1e-30", "0.01", "0.1", "0.36", "0.6", "0.85"):
            q = mpf(qs)
            for C in QSERIES_TABLES:
                lg, _ = qseries.pi_product(C, q, digits)
                ref, _ = pi_product_per_factor(C, q, 5 * digits // 2)
                worst = max(worst, abs(lg - ref) / abs(ref))
        out.append(_result("qseries-lambert-vs-product", worst, tol(0, digits)))
        for K in (mpf("0.7"), mpf("0.25")):
            pieces = qseries.free_energy_pieces(K, digits)
            ext = thermo.extract_corner(K, (16, 24, 32), digits)
            out.append(_result(f"corner-extraction-K{mpmath.nstr(K, 3)}",
                               abs(ext.f_c - pieces.f_c), mpf(10) ** -6))
    return out


def check_bulk_surface(digits):
    """-log Z / (LM) at 48 x 48 against the bulk product, and the surface
    term after bulk subtraction."""
    out = []
    K = mpf("0.7")
    with working_dps(digits):
        pieces = qseries.free_energy_pieces(K, digits, apply_errata=False)
        hom = HomogeneousCouplings.from_K(K, K, digits)
        s = 48
        sp = spectral.find_modes(hom.z, hom.t, s, digits)
        rs = spectral.residual_system(sp, s, digits)
        F_strip = -spectral.log_strip_part(sp, rs)
        fb_est = (F_strip - 2 * s * pieces.f_s - pieces.f_c) / (s * s)
        fs_est = (F_strip - s * s * pieces.f_b - pieces.f_c) / (2 * s)
        out.append(_result("bulk-limit-48", abs(fb_est - pieces.f_b), mpf(10) ** -8))
        out.append(_result("surface-limit-48", abs(fs_est - pieces.f_s), mpf(10) ** -6))
    return out


CHECK_GROUPS = {
    "fourpath": (check_four_paths, ["fourpath", "cylinder-long-vs-spectral"]),
    "spectral-identities": (check_spectral_identities,
                            ["charpoly-residual", "mode-ratio-identity",
                             "prodlambda", "t2-multiset"]),
    "residual": (check_residual_equivalences,
                 ["detY-vs-effspin", "detY-vs-closedL0", "detY-decay"]),
    "casimir": (check_casimir, ["casimir-fd", "casimir-effspin"]),
    "qseries": (check_qseries,
                ["qseries-roundtrip", "qseries-product-forms", "qseries-lambert-vs-product",
                 "corner-extraction"]),
    "bulk-surface": (check_bulk_surface, ["bulk-limit", "surface-limit"]),
}


def run_checks(digits=40, only=None):
    """Run the battery, or just the groups/checks whose name contains `only`.

    An `only` that selects no check raises DomainError.
    """
    results = []
    for gname, (fn, prefixes) in CHECK_GROUPS.items():
        if only and only not in gname and not any(
                p in only or only in p for p in prefixes):
            continue
        for r in fn(digits):
            if only and only not in r.name and only not in gname:
                continue
            results.append(r)
    if only and not results:
        raise DomainError(f"no check matches {only!r}")
    return results
