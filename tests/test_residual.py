"""The residual Cauchy system: identities, closed forms, and decay."""

import random

import mpmath
import pytest
from mpmath import mpf

from isingrect.lattice import HomogeneousCouplings
from isingrect.numerics import (
    PrecisionError,
    log_abs_det,
    log_det_bipartite_cauchy,
    signed_log,
    working_dps,
)
from isingrect.spectral import find_modes, log_zsres, residual_system
from isingrect.validate import log_zsres_closed_L0


def _spectrum(K, M):
    hom = HomogeneousCouplings.from_K(K, K)
    return find_modes(hom.z, hom.t, M)


# The dense reference: the regularized products by M^2 logs, the Cauchy
# factors A and B of Y = -A B, and log det(1 + Y) by elimination on Y.

def _regularized_products(rs):
    """p_mu = prod_{nu != mu} (c_mu - c_nu)^(-sigma_mu sigma_nu), as a sum
    of logs and a sign."""
    p = []
    for mu in range(rs.M):
        lg, sn = mpf(0), 1
        for nu in range(rs.M):
            if nu != mu:
                d = rs.c[mu] - rs.c[nu]
                lg -= rs.sigma[mu] * rs.sigma[nu] * mpmath.log(abs(d))
                sn = -sn if d < 0 else sn
        p.append(sn * mpmath.exp(lg))
    return p


def _cauchy_factors(rs):
    """A_eo = w_e/(c_e - c_o) and B_oe = w_o/(c_o - c_e), w = lam_hat^-L v."""
    w = [mpmath.exp(-rs.L * g) * v for g, v in zip(rs.gamma_hat, rs.v)]
    h = rs.M // 2
    A, B = mpmath.matrix(h, h), mpmath.matrix(h, h)
    for a, e in enumerate(rs.even):
        for b, o in enumerate(rs.odd):
            A[a, b] = w[e] / (rs.c[e] - rs.c[o])
            B[b, a] = w[o] / (rs.c[o] - rs.c[e])
    return A, B


def _dense_log_det_one_plus(Y):
    """log det(1 + Y) by elimination on Y, each pivot carried as u_kk - 1
    when 1 + Y is diagonally dominant, so that a tiny det - 1 keeps its
    relative digits; else by log_abs_det(1 + Y)."""
    n = Y.rows
    V = Y.tolist()
    if 2 * n * max(abs(x) for row in V for x in row) < 1:
        logdet = mpf(0)
        for k in range(n):
            logdet += mpmath.log1p(V[k][k])
            for i in range(k + 1, n):
                f = V[i][k] / (1 + V[k][k])
                for j in range(k + 1, n):
                    V[i][j] -= f * V[k][j]
        return logdet
    ld, s = log_abs_det(Y + mpmath.eye(n))
    assert s > 0
    return ld


def test_cauchy_inverse_identity():
    # P_e T_eo P_o T_oe = 1 with the regularized alternating products,
    # on the critical line z = t = 0.35
    with working_dps(40):
        sp = find_modes(mpf("0.35"), mpf("0.35"), 6)
        rs = residual_system(sp, 2)
        p = _regularized_products(rs)
        h = 3
        Pe = mpmath.matrix(h, h)
        Po = mpmath.matrix(h, h)
        Teo = mpmath.matrix(h, h)
        Toe = mpmath.matrix(h, h)
        for i, e in enumerate(rs.even):
            Pe[i, i] = p[e]
            for j, o in enumerate(rs.odd):
                Teo[i, j] = 1 / (rs.c[e] - rs.c[o])
        for i, o in enumerate(rs.odd):
            Po[i, i] = p[o]
            for j, e in enumerate(rs.even):
                Toe[i, j] = 1 / (rs.c[o] - rs.c[e])
        I = Pe * Teo * Po * Toe
        worst = max(abs(I[i, j] - (1 if i == j else 0))
                    for i in range(h) for j in range(h))
        assert worst < mpf("1e-32")


def test_cauchy_determinant_product_form():
    # |det T_oe| = q_o q_e / d_oe for the odd/even Cauchy block
    with working_dps(40):
        sp = _spectrum(mpf("0.42"), 8)
        rs = residual_system(sp, 1)
        h = 4
        Toe = mpmath.matrix(h, h)
        for i, o in enumerate(rs.odd):
            for j, e in enumerate(rs.even):
                Toe[i, j] = 1 / (rs.c[o] - rs.c[e])
        log_q = [sum(mpmath.log(abs(rs.c[g[i]] - rs.c[g[j]]))
                     for i in range(h) for j in range(i + 1, h))
                 for g in (rs.odd, rs.even)]
        ld, s = log_abs_det(Toe)
        assert s != 0
        assert abs(ld - (sum(log_q) - rs.log_d_oe)) < mpf("1e-36")


def test_M2_closed_hand_expansion():
    # for M = 2 the residual matrix is the single Cauchy term, and the one
    # pivot after the first is det(1 + Y)
    with working_dps(40):
        sp = _spectrum(mpf("0.4"), 2)
        L = mpf("1.5")
        rs = residual_system(sp, L)
        c1, c2 = rs.c
        v1, v2 = rs.v
        g1, g2 = rs.gamma_hat
        expect = mpmath.exp(-L * (g1 + g2)) * v1 * v2 / (c1 - c2) ** 2
        assert rs.Y.rows == 1
        assert abs(rs.Y[0, 0] - expect) < mpf("1e-36") * abs(expect)
        assert abs(rs.min_delta - expect) < mpf("1e-36") * abs(expect)
        assert abs(log_zsres(rs) - mpmath.log1p(expect)) < mpf("1e-36") * expect


def test_gf_definitions():
    # the logs of g = -lam^(L/2)(tz - lam) and f = lam^(-L/2)(t/z - lam)
    # reproduce them, and w = lam_hat^(-L) v = -p (f/g)^sigma
    with working_dps(40):
        sp = _spectrum(mpf("0.45"), 4)
        z, t = sp.couplings.z, sp.couplings.t
        L = mpf(3)
        rs = residual_system(sp, L)
        p = _regularized_products(rs)
        for mu, md in enumerate(sp.modes):
            s = md.sigma
            g = -md.lam ** (L / 2) * (t * z - md.lam)
            f = md.lam ** (-L / 2) * (t / z - md.lam)
            lgg, sg = signed_log(t * z - md.lam)
            lgf, sf = signed_log(t / z - md.lam)
            log_g = s * md.gamma_hat * L / 2 + lgg
            log_f = -s * md.gamma_hat * L / 2 + lgf
            assert abs(-sg * mpmath.exp(log_g) - g) < mpf("1e-35") * abs(g)
            assert abs(sf * mpmath.exp(log_f) - f) < mpf("1e-35") * abs(f)
            # v in terms of p and the signed eigenvalue
            expect_v = p[mu] * (t * z ** (-s) - md.lam) / (t * z ** s - md.lam)
            assert abs(rs.v[mu] - expect_v) < mpf("1e-35") * abs(expect_v)
            w = mpmath.exp(-L * md.gamma_hat) * rs.v[mu]
            expect_w = -p[mu] * (f / g) ** s
            assert abs(w - expect_w) < mpf("1e-35") * abs(expect_w)


@pytest.mark.parametrize("K", [mpf("0.35"), mpf("0.7")])
@pytest.mark.parametrize("M", [4, 6, 8])
def test_closed_L0_product(K, M):
    with working_dps(40):
        sp = _spectrum(K, M)
        rs = residual_system(sp, 0)
        a = log_zsres(rs)
        b = log_zsres_closed_L0(sp)
        assert abs(mpmath.expm1(a - b)) < mpf("1e-30")


def test_real_L_and_decay():
    with working_dps(40):
        sp = _spectrum(mpf("0.3"), 8)
        vals = []
        for L in (mpf("2.5"), mpf(5), mpf(10), mpf(20)):
            vals.append(abs(log_zsres(residual_system(sp, L))))
        # halving: each doubling of L must shrink the residual by at least
        # the softest decay rate (with a generous safety factor)
        gmin = min(sp.gamma_hat)
        for a, b, L in zip(vals, vals[1:], (mpf("2.5"), mpf(5), mpf(10))):
            assert b <= a * mpmath.exp(-gmin * L) * 10
        rs = residual_system(sp, 80)
        assert abs(log_zsres(rs)) < mpf("1e-8")


def test_Y_entries_bounded_by_decay():
    with working_dps(40):
        sp = _spectrum(mpf("0.4"), 6)
        L = mpf(12)
        rs = residual_system(sp, L)
        gh = rs.gamma_hat
        # every entry of Y carries at least the two softest decay factors
        bound = mpmath.exp(-L * (gh[rs.odd[0]] + gh[rs.even[0]]))
        scale = max(abs(v) for v in rs.v) ** 2 / min(
            abs(rs.c[i] - rs.c[j]) for i in rs.odd for j in rs.even) ** 2
        h = rs.Y.rows
        worst = max(abs(rs.Y[i, j]) for i in range(h) for j in range(h))
        assert worst <= bound * scale * h


def _sweep_draws(n, seed=14):
    """(K, M, L) over K in [0.15, 2] with K_c among them, even M in [4, 32]
    and L in [0, 32]."""
    rng = random.Random(seed)
    with mpmath.mp.workdps(60):
        Kc = mpmath.nstr(mpmath.log(1 + mpmath.sqrt(2)) / 2, 55)
    draws = []
    for i in range(n):
        K = Kc if i % 8 == 0 else f"{rng.uniform(0.15, 2):.6f}"
        draws.append((K, 2 * rng.randint(2, 16), rng.choice([0, rng.uniform(0, 32), 32])))
    return draws


@pytest.mark.parametrize("K,M,L", _sweep_draws(24))
def test_elimination_matches_dense_reference(K, M, L):
    # every pivot passes the certificate, and log det(1 + Y) and its
    # L-derivative match the dense Y, its LU and the explicit inverse, made
    # at 100 digits from the same modes
    with working_dps(40):
        sp = _spectrum(mpf(K), M)
        rs = residual_system(sp, mpf(L))
        assert rs.min_delta >= -mpf(2) ** -mpmath.mp.prec
        assert rs.width >= mpmath.mp.prec
    with mpmath.mp.workdps(100):
        A, B = _cauchy_factors(rs)
        Y = -(A * B)
        ref = _dense_log_det_one_plus(Y)
        # dY/dL = -diag(gamma_e) Y + A diag(gamma_o) B
        Go = mpmath.diag([rs.gamma_hat[o] for o in rs.odd])
        Ge = mpmath.diag([rs.gamma_hat[e] for e in rs.even])
        dY = -Ge * Y + A * Go * B
        X = (mpmath.eye(rs.M // 2) + Y) ** -1 * dY
        dref = sum(X[i, i] for i in range(rs.M // 2))
        assert abs(rs.log_det - ref) <= mpf(10) ** -40 * abs(ref)
        assert abs(rs.dlog_det - dref) <= mpf(10) ** -40 * abs(dref)


def test_width_resolves_tiny_residual():
    # det(1 + Y) - 1 near 1e-73 keeps its relative digits: the fixed-point
    # width reaches past it by the working precision
    with working_dps(40):
        sp = _spectrum(mpf("0.2"), 16)
        rs = residual_system(sp, 64)
        excess = mpmath.expm1(log_zsres(rs))
        assert 0 < excess < mpf("1e-70")
        assert rs.width >= mpmath.mp.prec - mpmath.log(excess, 2)
        assert rs.width < mpmath.mp.prec - mpmath.log(excess, 2) + 64


def test_nonpositive_balanced_term_raises():
    # one w_e negated makes the pair terms with it negative, so a pivot
    # falls below 1 by far more than rounding: the certificate refuses it
    with working_dps(40):
        sp = _spectrum(mpf("0.4"), 8)
        rs = residual_system(sp, 1)
        w = [mpmath.exp(-rs.L * g) * v for g, v in zip(rs.gamma_hat, rs.v)]
        log_det, dlog_det, _, _ = log_det_bipartite_cauchy(rs.c, w, rs.gamma_hat)
        assert (log_det, dlog_det) == (rs.log_det, rs.dlog_det)
        w[3] = -w[3]
        with pytest.raises(PrecisionError):
            log_det_bipartite_cauchy(rs.c, w, rs.gamma_hat)
