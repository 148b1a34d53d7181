import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from isingrect.brute_force import brute_force_logZ
from isingrect.cylinder import logZ_cylinder
from isingrect.lattice import CouplingGrid, HomogeneousCouplings, LatticeSpec, pm
from isingrect.numerics import PrecisionError, working_dps
from isingrect import lattice, spectral
from isingrect.pfaffian import logZ_pfaffian
from isingrect.spectral import char_poly, find_modes, logZ_spectral, residual_system
from isingrect.thermo import report
from isingrect.validate import build_T2
from references import eigvec_matrix, logZ_via_detM

K_ABOVE, K_BELOW = mpf("0.3"), mpf("0.6")


def _hom(K):
    return HomogeneousCouplings.from_K(K, K)


def _hom_zt(K):
    h = _hom(K)
    return h.z, h.t


def test_char_poly_zero_limit():
    with working_dps(40):
        h = _hom(K_ABOVE)
        tp, tm = pm(h.t)
        zp, zm = pm(h.z)
        expect = 1 + 6 * (tp - tm * zp / zm)
        tiny = char_poly(mpf("1e-42"), h, 6)
        assert abs(tiny - expect) < mpf("1e-30")


@pytest.mark.parametrize("phi,M,printed", [
    ("0.7", 16, "-0.02797127701434826897284952665667078170153"),
    # at 50 working digits sin(1e-42) equals the limit branch's threshold,
    # so the general form runs; 1e-45 takes the limit branch
    ("1e-42", 6, "3.58440724321708813318279502240866437599"),
    ("1e-45", 6, "3.58440724321708813318279502240866437599"),
    ("0.25j", 16, "77.86381571522774048475606312047393664079"),
], ids=["real", "sin-limit", "sin-limit-branch", "imaginary"])
def test_char_poly_printed_digits_are_golden(phi, M, printed):
    with working_dps(40):
        phi = mpc(0, mpf(phi[:-1])) if phi.endswith("j") else mpf(phi)
        couplings = HomogeneousCouplings.from_K("0.3", "0.3", 40)
        assert mpmath.nstr(char_poly(phi, couplings, M), 40) == printed


def test_report_forms_the_pairs_once_per_record(monkeypatch):
    # from_K forms z+- and t+- for its record and find_modes for its own;
    # every later spectral step reads them from the record
    orig, calls = lattice.pm, []
    for name, module in list(sys.modules.items()):
        if name.startswith("isingrect") and getattr(module, "pm", None) is orig:
            monkeypatch.setattr(module, "pm", lambda a: calls.append(a) or orig(a))
    report(16, 48, "0.2", "0.2", 40)
    assert len(calls) <= 4


def test_char_poly_M2_quadratic_roots():
    # for M = 2 the polynomial is quadratic in cos(phi); compare the mode
    # constants against the explicit quadratic roots
    with working_dps(40):
        z, t = _hom_zt(mpf("0.35"))
        tp, tm = pm(t)
        zp, zm = pm(z)
        # (2 + 2 tp) x^2 - 2 tm (zp/zm) x - 1 = 0 in x = cos(phi)
        A, B, C = 2 + 2 * tp, -2 * tm * zp / zm, mpf(-1)
        disc = mpmath.sqrt(B * B - 4 * A * C)
        xs = sorted([(-B + disc) / (2 * A), (-B - disc) / (2 * A)], reverse=True)
        cs = [tp * zp - tm * zm * x for x in xs]
        sp = find_modes(z, t, 2)
        for c_expect, mode in zip(cs, sp.modes):
            assert abs(mode.c - c_expect) < mpf("1e-38")


@pytest.mark.parametrize("K,label", [(K_ABOVE, "above"), (None, "critical"), (K_BELOW, "below")])
@pytest.mark.parametrize("M", [4, 6, 8])
def test_mode_identities(K, label, M, Kc):
    K = K if K is not None else Kc
    with working_dps(40):
        z, t = _hom_zt(K)
        sp = find_modes(z, t, M)
        assert len(sp.modes) == M
        zm = pm(z)[1]
        for mu, md in enumerate(sp.modes):
            assert md.sigma == (1 if mu % 2 == 0 else -1)
            assert md.lam_hat > 1 and md.gamma_hat > 0
            # root residual
            assert abs(char_poly(md.phi_signed, sp.couplings, M)) < mpf("1e-30")
            # ratio identity fixes the parity ordering mode by mode
            lamm = mpmath.sinh(md.sigma * md.gamma_hat)
            if md.kind == "imag":
                lhs = mpmath.sinh(M * md.phi) / mpmath.sinh(md.phi)
            else:
                lhs = mpmath.sin(M * md.phi) / mpmath.sin(md.phi)
            assert abs(lhs * lamm / (-zm) - 1) < mpf("1e-30")
        # eigenvalue product telescopes to t; parities balance
        assert abs(mpmath.exp(sum(m.sigma * m.gamma_hat for m in sp.modes)) - t) < mpf("1e-30")
        assert sum(m.sigma for m in sp.modes) == 0


def test_half_angle_identities():
    # tan(M phi/2) relations connecting the angle to the eigenvalue
    with working_dps(40):
        z, t = _hom_zt(mpf("0.42"))
        M = 6
        sp = find_modes(z, t, M)
        for md in sp.modes:
            phi = md.phi_signed
            lam = md.lam
            lhs1 = mpmath.tan(M * phi / 2) * mpmath.tan(phi / 2)
            rhs1 = (z - t * lam) / (t * z - lam)
            assert abs(mpc(lhs1) - rhs1) < mpf("1e-30")
            lhs2 = mpmath.tan(M * phi / 2) / mpmath.tan(phi / 2)
            rhs2 = (t * z * lam - 1) / (t - z * lam)
            assert abs(mpc(lhs2) - rhs2) < mpf("1e-30")


def test_squared_half_angle_identities():
    # branch-free forms: the squared half-angle functions are rational in
    # the eigenvalue, with the width entering only through the M-fold angle
    with working_dps(40):
        for K in (mpf("0.38"), mpf("0.7")):
            z, t = _hom_zt(K)
            zm = pm(z)[1]
            tm = pm(t)[1]
            M = 6
            sp = find_modes(z, t, M)
            for md in sp.modes:
                phi = md.phi_signed
                lam = md.lam
                lamm = mpmath.sinh(md.sigma * md.gamma_hat)
                denom1 = 4 * t * z * lam * tm * zm
                s2 = mpc(mpmath.sin(phi / 2)) ** 2
                c2 = mpc(mpmath.cos(phi / 2)) ** 2
                assert abs(s2 - (z - t * lam) * (t - z * lam) / denom1) < mpf("1e-30")
                assert abs(c2 - (lam - t * z) * (1 - t * z * lam) / denom1) < mpf("1e-30")
                denomM = 4 * t * z * lam * tm * lamm
                sM2 = mpc(mpmath.sin(M * phi / 2)) ** 2
                cM2 = mpc(mpmath.cos(M * phi / 2)) ** 2
                assert abs(sM2 - (z - t * lam) * (1 - t * z * lam) / denomM) < mpf("1e-28")
                assert abs(cM2 - (t - z * lam) * (lam - t * z) / denomM) < mpf("1e-28")


def test_below_critical_has_imaginary_mode():
    with working_dps(40):
        z, t = _hom_zt(mpf("0.7"))
        sp = find_modes(z, t, 8)
        kinds = [m.kind for m in sp.modes]
        assert kinds.count("imag") == 1
        assert sp.modes[0].kind == "imag"      # softest mode
        assert sp.modes[0].lam > 1             # its eigenvalue stays real > 1


def test_critical_root_pattern():
    # at the self-dual point all M roots are real and the softest goes soft
    with working_dps(40):
        zc = mpmath.sqrt(mpf(2)) - 1
        sp = find_modes(zc, zc, 6)
        assert all(m.kind == "real" for m in sp.modes)
        assert sp.modes[0].phi < mpmath.pi / 6


def test_T2_structure_and_inversion(Kc):
    M = 4
    with working_dps(40):
        z, t = _hom_zt(Kc)
        sys = build_T2(z, t, M)
        T2 = sys.T2
        for i in range(2 * M):
            for j in range(2 * M):
                assert T2[i, j] == T2[j, i]
        # inversion symmetry: T2^(-1) swaps the sign of the off block
        inv = T2 ** -1
        worst = mpf(0)
        for i in range(M):
            for j in range(M):
                worst = max(worst,
                            abs(inv[i, j] - sys.T_plus[i, j]),
                            abs(inv[i, M + j] + sys.T_minus[i, j]),
                            abs(inv[M + i, j] + sys.T_minus[i, j]),
                            abs(inv[M + i, M + j] - sys.T_plus[i, j]))
        assert worst < mpf("1e-36")


def test_T2_M2_explicit_entries():
    with working_dps(40):
        z, t = _hom_zt(mpf("0.5"))
        zp, zm = pm(z)
        tp, tm = pm(t)
        sys = build_T2(z, t, 2)
        a0p = tp * zp + (1 - tp) * (zp + 1) / 2
        a0m = tp * zp + (1 - tp) * (zp - 1) / 2
        c = -tm * zm / 2
        b0 = -(1 + tp) * zm / 2
        dp = tm * (1 + zp) / 2
        dm = -tm * (1 - zp) / 2
        assert sys.T_plus[0, 0] == a0p and sys.T_plus[1, 1] == a0m
        assert sys.T_plus[0, 1] == sys.T_plus[1, 0] == c
        assert sys.T_minus[0, 1] == sys.T_minus[1, 0] == b0
        assert sys.T_minus[0, 0] == dm and sys.T_minus[1, 1] == dp


@pytest.mark.parametrize("K", [K_ABOVE, mpf("0.7")])
def test_T2_eigen_multiset(K):
    M = 6
    with working_dps(40):
        z, t = _hom_zt(K)
        sp = find_modes(z, t, M)
        sys = build_T2(z, t, M)
        eigs = sorted(mp.eigsy(sys.T2, eigvals_only=True))
        lams = sorted([m.lam for m in sp.modes] + [1 / m.lam for m in sp.modes])
        assert max(abs(a - b) for a, b in zip(lams, eigs)) < mpf("1e-25")
        # det T2 = 1 follows from the reciprocal pairing
        assert abs(mpmath.fprod(eigs) - 1) < mpf("1e-30")


@pytest.mark.parametrize("K", [K_ABOVE, mpf("0.7")])
def test_eigvec_orthonormal_and_transfer(K):
    M = 4
    with working_dps(40):
        z, t = _hom_zt(K)
        sp = find_modes(z, t, M)
        X = eigvec_matrix(sp)
        assert X.rows == X.cols == M     # columns span m = -M+1, ..., M-1
        G = X.T * X
        worst = max(abs(G[i, j] - (1 if i == j else 0))
                    for i in range(M) for j in range(M))
        assert worst < mpf("1e-32")
        Lam = mpmath.matrix(M, M)
        for mu, md in enumerate(sp.modes):
            Lam[mu, mu] = md.lam
        T = X.T * Lam * X
        Tinv = T ** -1
        sys = build_T2(z, t, M)
        worst = max(abs(((T + Tinv) / 2)[i, j] - sys.T_plus[i, j])
                    for i in range(M) for j in range(M))
        worst = max(worst, max(abs(((T - Tinv) / 2)[i, j] - sys.T_minus[i, j])
                               for i in range(M) for j in range(M)))
        assert worst < mpf("1e-32")
        # det T = t
        from isingrect.numerics import log_abs_det

        ld, s = log_abs_det(T)
        assert s == 1 and abs(mpmath.exp(ld) - t) < mpf("1e-32")


@pytest.mark.parametrize("L,M,K", [(4, 4, K_ABOVE), (4, 4, None), (3, 4, mpf("0.7"))])
def test_detM_route_matches_oracle(L, M, K, Kc):
    K = K if K is not None else Kc
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K)
    with working_dps(40):
        z, t = _hom_zt(K)
        a = logZ_via_detM(L, M, z, t)
        b = brute_force_logZ(grid).logZ
        assert abs(a - b) < mpf("1e-30") * abs(b)


def test_detM_guard_refuses_long_strips():
    with working_dps(40):
        z, t = _hom_zt(mpf("0.7"))
        with pytest.raises(PrecisionError, match="spectral"):
            logZ_via_detM(500, 4, z, t, digits=15)


def test_detM_zero_length_consistency():
    # at L = 0 the mixing matrix collapses to the eigenvector matrix, so the
    # route must agree with the factorized form there
    with working_dps(40):
        z, t = _hom_zt(mpf("0.45"))
        a = logZ_spectral(0, 6, z, t)
        sp = find_modes(z, t, 6)
        rs = residual_system(sp, 0)
        from isingrect.spectral import log_strip_part, log_zsres

        b = log_strip_part(sp, rs) + log_zsres(rs)
        assert abs(a - b) == 0
        # and det Mx = |det x| = 1 up to rounding
        X = eigvec_matrix(sp)
        from isingrect.numerics import log_abs_det

        ld, _ = log_abs_det(X)
        assert abs(ld) < mpf("1e-34")


@pytest.mark.parametrize("L,M,Kh,Kv", [
    (4, 4, "0.3", "0.3"),
    (6, 4, "0.2", "0.55"),
    (2, 6, "0.6", "0.6"),
    (1, 4, "0.4", "0.5"),
    (4, 6, "0.9", "0.3"),   # strongly anisotropic, ordered side
])
def test_spectral_matches_pfaffian(L, M, Kh, Kv):
    grid = CouplingGrid.from_scalars(LatticeSpec(L, M), Kh, Kv)
    with working_dps(40):
        hom = HomogeneousCouplings.from_K(Kh, Kv)
        a = logZ_spectral(L, M, hom.z, hom.t)
        b = logZ_pfaffian(grid)
        assert abs(a - b) < mpf("1e-30") * abs(b)


def test_long_strip_limit():
    # the residual part must fade out of log Z for long strips
    with working_dps(40):
        z, t = _hom_zt(mpf("0.25"))
        from isingrect.spectral import log_strip_part, log_zsres

        sp = find_modes(z, t, 16)
        rs = residual_system(sp, 200)
        assert abs(log_zsres(rs)) < mpf("1e-8")
        total = logZ_spectral(200, 16, z, t)
        assert abs(total - log_strip_part(sp, rs)) < mpf("1e-8")


def test_find_modes_rejects_odd_M():
    from isingrect.numerics import DomainError

    with pytest.raises(DomainError):
        find_modes(mpf("0.3"), mpf("0.5"), 3)


def test_direct_coupling_parameters():
    # z and t are independent inputs; z = t is the critical line
    with working_dps(40):
        z = t = mpf("0.3")
        sp = find_modes(z, t, 4)
        X = eigvec_matrix(sp)
        G = X.T * X
        worst = max(abs(G[i, j] - (1 if i == j else 0)) for i in range(4) for j in range(4))
        assert worst < mpf("1e-32")
        assert abs(mpmath.exp(sum(m.sigma * m.gamma_hat for m in sp.modes)) - t) < mpf("1e-32")


# --- soft gap of the ordered phase ------------------------------------------
# logZ_cylinder at 60 digits; each takes 10 to 35 s to compute, so the values
# are kept here
CYLINDER_60 = {
    (8, 64, "1"): "953.31755324453124912192776097565651912263357210674433048026956937",
    (8, 96, "0.6"): "875.4982673341734394271537843112198988142790735441969848591375101",
}


def _reference(L, M, K):
    if (L, M, K) in CYLINDER_60:
        return mpf(CYLINDER_60[L, M, K])
    if L == 8:
        grid = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K)
        return logZ_cylinder(grid, 60)
    hom = HomogeneousCouplings.from_K(K, K, 120)
    return logZ_spectral(L, M, hom.z, hom.t, 120)


@pytest.mark.parametrize("L,M,K", [(32, 96, "0.5"), (8, 32, "1"), (8, 64, "1"), (8, 96, "0.6")])
def test_ordered_phase_soft_gap(L, M, K):
    # the imaginary mode's gap is exponentially small; taken from acosh(c) it
    # read the floor sqrt(10^-dps) and logZ came out wrong without an error
    digits = 40
    with working_dps(80):
        ref = _reference(L, M, K)
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        sp = find_modes(hom.z, hom.t, M, digits)
        assert sp.modes[0].kind == "imag"
        got = logZ_spectral(L, M, hom.z, hom.t, digits)
    with working_dps(80):
        assert abs(got - ref) < mpf(10) ** (2 - digits) * abs(ref)


# --- brackets, seeds and the certificate --------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.integers(1, 64))
def test_mode_brackets_and_certificate(z, t, half):
    M = 2 * half
    with working_dps(40):
        z, t = mpf(z), mpf(t)
        sp = find_modes(z, t, M)
        tp, tm = pm(t)
        zp, zm = pm(z)
        p0 = 1 + M * (tp - tm * zp / zm)
        assert [m.kind for m in sp.modes] == ["real" if p0 > 0 else "imag"] + ["real"] * (M - 1)
        xtol = mpf(10) ** (3 - mp.dps)
        for k, md in enumerate(sp.modes, start=1):
            if md.kind == "real":
                assert mpmath.pi * (k - 1) / M < md.phi < mpmath.pi * k / M
                ends = [char_poly(md.phi + s * xtol / 2, sp.couplings, M) for s in (-1, 1)]
            else:
                ends = [char_poly(mpc(0, md.phi + s * xtol / 2), sp.couplings, M)
                        for s in (-1, 1)]
            assert ends[0] * ends[1] <= 0


def _p0(K, M):
    """P_M(0) = 1 + M (t+ - t- z+/z-) at the isotropic coupling K."""
    hom = HomogeneousCouplings.from_K(K, K, mp.dps)
    tp, tm = pm(hom.t)
    zp, zm = pm(hom.z)
    return 1 + M * (tp - tm * zp / zm)


@pytest.mark.parametrize("shift", ["-1e-6", "-1e-30", "-1e-45", "1e-45", "1e-30", "1e-6"])
def test_soft_mode_near_the_axis_crossing(shift):
    # near the K where P_M(0) = 0 the soft mode passes from the real axis to
    # the imaginary one through phi = 0, and the strip factor's normalisation
    # cancels about log10(1/phi^2) digits; past the guard digits the soft
    # mode takes the exact form, so only a mode that find_modes cannot tell
    # from phi = 0 is refused
    L, M, digits = 16, 16, 40
    with working_dps(100):
        K0 = mpmath.findroot(lambda K: _p0(K, M), mpf("0.47"))
        K = K0 + mpf(shift)
        assert (_p0(K, M) > 0) == (shift[0] == "-")
    with working_dps(60):
        ref = logZ_cylinder(CouplingGrid.from_scalars(LatticeSpec(L, M), K, K), 60)
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        try:
            got = logZ_spectral(L, M, hom.z, hom.t, digits)
        except PrecisionError:
            assert abs(mpf(shift)) < mpf("1e-40")
            return
    with working_dps(60):
        assert abs(got - ref) < mpf(10) ** (2 - digits) * abs(ref)


@pytest.mark.parametrize("shift", ["-1e-12", "1e-12"])
def test_soft_mode_crossing_takes_the_exact_form(shift, monkeypatch):
    # at K_x +- 1e-12, where P_16(0) = 0 at K_x = 0.45581351870395112793...,
    # the direct normalisation of the soft mode cancels about 12 digits,
    # more than the guard holds; the exact form keeps every printed digit
    L, M, digits = 8, 16, 40
    with working_dps(100):
        K = mpmath.findroot(lambda K: _p0(K, M), mpf("0.4558")) + mpf(shift)
    with working_dps(60):
        ref = logZ_pfaffian(CouplingGrid.from_scalars(LatticeSpec(L, M), K, K), 60)
    calls = []
    exact = spectral._soft_ratio
    monkeypatch.setattr(spectral, "_soft_ratio", lambda *a: calls.append(a) or exact(*a))
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        got = logZ_spectral(L, M, hom.z, hom.t, digits)
    assert len(calls) == 1
    with working_dps(60):
        assert abs(got - ref) <= mpf(10) ** -digits * abs(ref)


@pytest.mark.parametrize("K", ["5", "11", "20"])
def test_strong_coupling(K):
    # above K = 11.86, z- = (z - 1/z)/2 cancels more digits than the guard
    # holds, and the route refuses; below, it matches the Pfaffian
    L, M, digits = 4, 4, 40
    with working_dps(60):
        ref = logZ_pfaffian(CouplingGrid.from_scalars(LatticeSpec(L, M), K, K), 60)
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        if mpf(K) > mpf("11.86"):
            with pytest.raises(PrecisionError):
                logZ_spectral(L, M, hom.z, hom.t, digits)
            return
        got = logZ_spectral(L, M, hom.z, hom.t, digits)
    with working_dps(60):
        assert abs(got - ref) < mpf(10) ** (2 - digits) * abs(ref)


def test_float_overflow_in_the_seeds():
    # t+ = 5e399 has no float; the seeds fall back to the bracket midpoints,
    # and the roots hug k pi/M closer than the precision resolves
    with working_dps(40):
        with pytest.raises(PrecisionError):
            find_modes(mpf("0.5"), mpf("1e-400"), 4)
