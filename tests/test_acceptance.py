"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL line of
every criterion.  Criterion 5 part (iv) is marked xfail: the corner free
energy at K = 2 is exactly -1.3425e-3, above the stated 1e-4 bound; the
decay-to-zero trend itself is covered by a genuine assertion at larger K.
"""

import sys

import mpmath
import pytest
from mpmath import mp, mpf

from isingrect import (
    CouplingGrid,
    HomogeneousCouplings,
    LatticeSpec,
    brute_force_logZ,
    build_eff_model,
    build_T2,
    char_poly,
    extract_corner,
    find_modes,
    free_energy_pieces,
    log_zsres,
    log_zsres_closed_L0,
    logZ_cylinder,
    logZ_pfaffian,
    logZ_spectral,
    magnetization_eff,
    pi_product,
    q_of_t,
    residual_system,
    t_of_q,
    z_eff,
)
from isingrect import qseries, thermo
from isingrect.brute_force import MAX_COLUMN, column_length
from isingrect.cli import main as cli_main
from isingrect.numerics import working_dps
from isingrect.spectral import log_strip_part

DIGITS = 40


def verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_four_path_agreement(Kc):
    sizes = [(2, 2), (2, 4), (3, 4), (4, 4), (4, 6)]
    couplings = [("0.2", "0.2"), (Kc, Kc), ("0.7", "0.7"), ("0.2", "0.6")]
    tol = mpf(10) ** -10
    worst = mpf(0)
    with working_dps(DIGITS):
        for L, M in sizes:
            for Kh, Kv in couplings:
                grid = CouplingGrid.from_scalars(LatticeSpec(L, M), Kh, Kv)
                hom = HomogeneousCouplings.from_K(Kh, Kv)
                vals = [logZ_pfaffian(grid),
                        logZ_cylinder(grid),
                        logZ_spectral(L, M, hom.z, hom.t)]
                if column_length(grid.spec) <= MAX_COLUMN:
                    vals.append(brute_force_logZ(grid).logZ)
                worst = max(worst, (max(vals) - min(vals)) / abs(vals[0]))
    verdict("1 four-path agreement", worst <= tol,
            f"(max pairwise rel spread {mpmath.nstr(worst, 3)} <= 1e-10)")


def test_criterion_2_spectral_identities(Kc):
    regimes = [("above", mpf("0.3")), ("critical", Kc), ("below", mpf("0.6"))]
    worst_root = worst_ratio = worst_prod = worst_multiset = mpf(0)
    with working_dps(DIGITS):
        for M in (4, 6, 8, 16, 32):
            for _, K in regimes:
                hom = HomogeneousCouplings.from_K(K, K)
                sp = find_modes(hom.z, hom.t, M)
                zm = (hom.z - 1 / hom.z) / 2
                for md in sp.modes:
                    worst_root = max(worst_root,
                                     abs(char_poly(md.phi_signed, hom.z, hom.t, M)))
                    lamm = mpmath.sinh(md.sigma * md.gamma_hat)
                    if md.kind == "imag":
                        lhs = mpmath.sinh(M * md.phi) / mpmath.sinh(md.phi)
                    else:
                        lhs = mpmath.sin(M * md.phi) / mpmath.sin(md.phi)
                    # relative: the sides grow like 1/gamma_1 below critical
                    worst_ratio = max(worst_ratio, abs(lhs * lamm / (-zm) - 1))
                worst_prod = max(worst_prod, abs(mpmath.exp(
                    sum(m.sigma * m.gamma_hat for m in sp.modes)) - hom.t))
                if M <= 8:
                    eigs = sorted(mp.eigsy(build_T2(hom.z, hom.t, M).T2,
                                           eigvals_only=True))
                    lams = sorted([m.lam for m in sp.modes]
                                  + [1 / m.lam for m in sp.modes])
                    worst_multiset = max(worst_multiset, max(
                        abs(a - b) for a, b in zip(lams, eigs)))
    ok = (worst_root <= mpf(10) ** -30 and worst_ratio <= mpf(10) ** -30
          and worst_prod <= mpf(10) ** -30 and worst_multiset <= mpf(10) ** -25)
    verdict("2 spectral identities", ok,
            f"(roots {mpmath.nstr(worst_root, 3)}, ratio {mpmath.nstr(worst_ratio, 3)}, "
            f"prod {mpmath.nstr(worst_prod, 3)}, multiset {mpmath.nstr(worst_multiset, 3)})")


def test_criterion_3_residual_equivalences():
    K = mpf("0.35")
    tol = mpf(10) ** -8
    worst_eff = worst_closed = mpf(0)
    with working_dps(DIGITS):
        hom = HomogeneousCouplings.from_K(K, K)
        for M in (4, 6, 8, 10, 12):
            sp = find_modes(hom.z, hom.t, M)
            for L in (mpf(0), mpf(1), mpf("2.5"), mpf(10)):
                rs = residual_system(sp, L)
                det1y = mpmath.exp(log_zsres(rs))
                zeff = z_eff(build_eff_model(rs))
                worst_eff = max(worst_eff, abs(det1y - zeff) / zeff)
            rs0 = residual_system(sp, 0)
            worst_closed = max(worst_closed, abs(mpmath.expm1(
                log_zsres(rs0) - log_zsres_closed_L0(sp))))
        hom3 = HomogeneousCouplings.from_K("0.3", "0.3")
        sp = find_modes(hom3.z, hom3.t, 8)
        decay = abs(mpmath.expm1(log_zsres(residual_system(sp, 80))))
    ok = worst_eff <= tol and worst_closed <= tol and decay <= tol
    verdict("3 residual equivalences", ok,
            f"(effspin {mpmath.nstr(worst_eff, 3)}, closed-L0 {mpmath.nstr(worst_closed, 3)}, "
            f"decay {mpmath.nstr(decay, 3)})")


def test_criterion_4_casimir_consistency(Kc):
    worst_fd = worst_meff = mpf(0)
    with working_dps(DIGITS):
        for K in (mpf("0.3"), Kc, mpf("0.6")):
            for M in (4, 8, 12):
                L = 8
                an = thermo.casimir_force_strip(L, M, K, K)
                fd = thermo.casimir_force_fd(L, M, K, K, dL=mpf("1e-4"))
                worst_fd = max(worst_fd, abs(an - fd) / abs(an))
                hom = HomogeneousCouplings.from_K(K, K)
                rs = residual_system(find_modes(hom.z, hom.t, M), L)
                meff = magnetization_eff(build_eff_model(rs))
                worst_meff = max(worst_meff, abs(an + meff))
    ok = worst_fd <= mpf(10) ** -6 and worst_meff <= mpf(10) ** -8
    verdict("4 casimir consistency", ok,
            f"(fd gap {mpmath.nstr(worst_fd, 3)}, -m_eff gap {mpmath.nstr(worst_meff, 3)})")


def test_criterion_5_appendix_products_i_to_iii():
    with working_dps(DIGITS):
        worst_rt = mpf(0)
        for qs in ("0.01", "0.05", "0.1", "0.2", "0.3", "0.4", "0.5"):
            q = mpf(qs)
            worst_rt = max(worst_rt, abs(q_of_t(t_of_q(q)) - q))
        worst_forms = mpf(0)
        for qs in ("0.01", "0.1", "0.3", "0.5"):
            q = mpf(qs)
            a, _ = pi_product(qseries.BULK_ABOVE, q)
            b, _ = pi_product(qseries.BULK_ABOVE_P4, q)
            worst_forms = max(worst_forms, abs(a - b))
            a, _ = pi_product(qseries.CORNER_ABOVE, q)
            b, _ = pi_product(qseries.CORNER_ABOVE_QSQ, q * q)
            worst_forms = max(worst_forms, abs(a - b))
        worst_corner = mpf(0)
        for K in (mpf("0.7"), mpf("0.25")):
            ext = extract_corner(K, (16, 24, 32))
            pieces = free_energy_pieces(K)
            worst_corner = max(worst_corner, abs(ext.f_c - pieces.f_c))
    ok = (worst_rt <= mpf(10) ** -10 and worst_forms <= mpf(10) ** -20
          and worst_corner <= mpf(10) ** -6)
    verdict("5(i-iii) appendix products", ok,
            f"(roundtrip {mpmath.nstr(worst_rt, 3)}, forms {mpmath.nstr(worst_forms, 3)}, "
            f"corner {mpmath.nstr(worst_corner, 3)})")


@pytest.mark.xfail(
    strict=True,
    reason="|f_c(K=2)| = 1.3425e-3 with the erratum applied; the stated 1e-4 "
    "bound cannot be met at K=2 (it is met from roughly K = 2.65 on; see the "
    "decay assertion in the companion test)",
)
def test_criterion_5_iv_corner_trend_at_K2_as_stated():
    with working_dps(DIGITS):
        fc = free_energy_pieces(mpf(2)).f_c
    verdict("5(iv) |f_c(K=2)| < 1e-4 as stated", abs(fc) < mpf(10) ** -4,
            f"(measured |f_c| = {mpmath.nstr(abs(fc), 6)})")


def test_criterion_5_iv_corner_trend_decay():
    # the substantive claim: f_c -> 0 for T -> 0 (monotone decay in K)
    with working_dps(DIGITS):
        vals = [abs(free_energy_pieces(mpf(K)).f_c)
                for K in ("1.0", "1.5", "2.0", "2.5", "3.0")]
        ok = all(a > b for a, b in zip(vals, vals[1:])) and vals[-1] < mpf(10) ** -4
    verdict("5(iv) corner term decays to zero", ok,
            f"(|f_c| at K=2: {mpmath.nstr(vals[2], 4)}, at K=3: {mpmath.nstr(vals[-1], 4)})")


def test_criterion_6_bulk_surface_limits():
    K = mpf("0.7")
    with working_dps(DIGITS):
        pieces = free_energy_pieces(K, apply_errata=False)
        hom = HomogeneousCouplings.from_K(K, K)
        s = 48
        sp = find_modes(hom.z, hom.t, s)
        rs = residual_system(sp, s)
        F_strip = -log_strip_part(sp, s, rs)
        fb_est = (F_strip - 2 * s * pieces.f_s - pieces.f_c) / (s * s)
        fs_est = (F_strip - s * s * pieces.f_b - pieces.f_c) / (2 * s)
        db = abs(fb_est - pieces.f_b)
        ds = abs(fs_est - pieces.f_s)
    ok = db <= mpf(10) ** -8 and ds <= mpf(10) ** -6
    verdict("6 bulk/surface limits", ok,
            f"(bulk gap {mpmath.nstr(db, 3)}, surface gap {mpmath.nstr(ds, 3)})")


def test_criterion_7_determinism_and_robustness():
    code_ok = cli_main(["validate", "--digits", "40"])
    code_low = cli_main(["validate", "--digits", "15",
                         "--only", "charpoly-residual-M32"])
    ok = code_ok == 0 and code_low == 3
    verdict("7 determinism & robustness", ok,
            f"(40-digit exit {code_ok}, 15-digit exit {code_low})")
