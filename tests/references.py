"""Reference constructions that only the tests use.

Each one checks a route of the package by a second, independent formula:
the block-Schur factorization of the Pfaffian matrix, the eigenvector
matrix of the open strip with the det-Mx route built on it, and the global
constants C1 and C2 with the identity C2t = C0 C1, which checks the C0 of
the Pfaffian route against the C2t of the cylinder route.  None of them is
called by a route.  Imported by the test modules as `references`; pytest
does not collect it.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf

from isingrect import cylinder
from isingrect.cli import homogeneous_from_grid
from isingrect.lattice import CouplingGrid, LatticeSpec, dual, pm
from isingrect.numerics import (
    ConsistencyError,
    DomainError,
    PrecisionError,
    log_abs_det,
    signed_log,
    to_mpf,
    working_dps,
)
from isingrect.pfaffian import build_A, log_C0
from isingrect.spectral import find_modes, log_C3


def tanh_rows(rows):
    """tanh K for each coupling of the rows of Kh or Kv."""
    return tuple(tuple(mpmath.tanh(K) for K in row) for row in rows)


# --- block-Schur factorization of the Pfaffian matrix -----------------------


def _shift_open(n):
    """n x n upper shift with zero corner."""
    H = mpmath.matrix(n, n)
    for i in range(n - 1):
        H[i, i + 1] = 1
    return H


def _shift_wrap(n):
    """n x n upper shift with -1 in the lower-left corner."""
    H = _shift_open(n)
    H[n - 1, 0] = -1
    return H


def _schur_blocks(grid, z, zv):
    """Explicit diagonal/off-diagonal blocks of the LM x LM Schur complement,
    from the tanh couplings z and zv."""
    L, M = grid.spec.L, grid.spec.M
    one = mpmath.eye(M)
    Hm = _shift_wrap(M)
    A_plus, A_minus, D_blocks, B_blocks = [], [], [], []
    for l in range(L):
        Z = mpmath.matrix(M, M)
        for m in range(M):
            for mm in range(M):
                v = Hm[m, mm]
                if v:
                    Z[m, mm] = zv[l][m] * v
        ZT = Z.T
        for s, store in ((1, A_plus), (-1, A_minus)):
            diff = (one + s * ZT) ** -1 - (one + s * Z) ** -1
            try:
                store.append(s * (diff ** -1))
            except ZeroDivisionError:
                raise DomainError(
                    "Schur blocks need nonzero vertical couplings on rows m < M"
                ) from None
        D = (one - ZT) * ((one - Z * ZT) ** -1) - (one - Z) * ((one - ZT * Z) ** -1)
        D_blocks.append(D)
        zdiag = mpmath.matrix(M, M)
        for m in range(M):
            zdiag[m, m] = z[l][m]
        B_blocks.append(-(D ** -1) * zdiag)
    A_diag = [A_minus[0]]
    for l in range(1, L):
        zdiag = mpmath.matrix(M, M)
        for m in range(M):
            zdiag[m, m] = z[l - 1][m]
        A_diag.append(A_minus[l] + zdiag * A_plus[l - 1] * zdiag)
    return A_diag, B_blocks


def log_det_reduced(grid):
    """(log|.|, sign) of the minor left after dropping the fourth node row/col.

    Closed product form: prod_ell (prod_{m odd} zv + prod_{m even} zv)^2,
    with m counted 1-based and zv = tanh Kv.
    """
    L, M = grid.spec.L, grid.spec.M
    zv = tanh_rows(grid.Kv)
    lg, sign = mpf(0), 1
    for l in range(L):
        podd, peven = mpf(1), mpf(1)
        for m in range(M):
            if m % 2 == 0:
                podd *= zv[l][m]
            else:
                peven *= zv[l][m]
        s = podd + peven
        if s == 0:
            return mpf("-inf"), 0
        lg += 2 * mpmath.log(abs(s))
    return lg, sign


def schur_check(grid, digits=40):
    """Relative defect of det A = det(reduced minor) * det(Schur complement).

    The complement is built from its explicit block formulas, the reduced
    minor from its closed product.  Requires even M and nonzero vertical
    couplings on rows m < M.
    """
    M = grid.spec.M
    if M % 2:
        raise DomainError("the Schur factorization check supports even M only")
    with working_dps(digits):
        z, zv = tanh_rows(grid.Kh), tanh_rows(grid.Kv)
        for l in range(grid.spec.L):
            for m in range(M - 1):
                if zv[l][m] == 0:
                    raise DomainError(
                        "Schur blocks need nonzero vertical couplings on rows m < M"
                    )
        ldA, sA = log_abs_det(build_A(grid, digits))
        lg_red, s_red = log_det_reduced(grid)
        if s_red == 0:
            raise DomainError("reduced minor vanishes; factorization undefined")
        A_diag, B_blocks = _schur_blocks(grid, z, zv)
        L = grid.spec.L
        N = L * M
        C = mpmath.matrix(N, N)
        for l in range(L):
            for i in range(M):
                for j in range(M):
                    C[l * M + i, l * M + j] = A_diag[l][i, j]
            if l + 1 < L:
                B = B_blocks[l]
                for i in range(M):
                    for j in range(M):
                        C[l * M + i, (l + 1) * M + j] = B[i, j]
                        C[(l + 1) * M + i, l * M + j] = -B[j, i]
        ldC, sC = log_abs_det(C)
        if sA != s_red * sC:
            raise ConsistencyError("Schur factorization sign mismatch")
        return abs(mpmath.expm1(lg_red + ldC - ldA))


# --- global constants C1, C2 ------------------------------------------------


def log_C1(grid):
    """(log|C1|, sign): C1 = prod_{ell<L} z_h * prod (1 - zv^2).

    Each 1 - zv^2 = 1/cosh^2 Kv is taken as -2 log cosh Kv, which keeps its
    digits where zv = tanh Kv rounds to 1.
    """
    L, M = grid.spec.L, grid.spec.M
    total, sign = mpf(0), 1
    for l in range(L - 1):
        for m in range(M):
            lg, s = signed_log(mpmath.tanh(grid.Kh[l][m]))
            if s == 0:
                raise DomainError("C1 requires nonzero horizontal couplings for ell < L")
            total += lg
            sign *= s
    for l in range(L):
        for m in range(M):
            total -= 2 * mpmath.log(mpmath.cosh(grid.Kv[l][m]))
    return total, sign


def log_C2_dagger(grid, digits=40):
    """(log|C2t|, sign) as the cylinder route sums it from its factors.

    C2t = 2^((L+1)M) prod 1/z_minus, and each 1/z_minus = -sinh 2Kh is
    negative: the route takes only ferromagnetic couplings, and raises
    DomainError on a zero one on a column ell < L.
    """
    L, M = grid.spec.L, grid.spec.M
    with working_dps(digits):
        lg = cylinder.log_C2_dagger(cylinder.build_factors(grid, digits))
    return lg, (-1) ** ((L - 1) * M)


def log_C2(grid, digits=40):
    """(log|C2|, sign) with C2 = z^M C2t for a homogeneous-z grid."""
    L, M = grid.spec.L, grid.spec.M
    lg, s = log_C2_dagger(grid, digits)
    for m in range(M):
        z = mpmath.tanh(grid.Kh[0][m]) if L > 1 else mpf(1)
        zlg, zs = signed_log(z)
        lg += zlg
        s *= zs
    return lg, s


def constants(grid, digits=40):
    """All global constants applicable to this grid, as log-values.

    Returns a dict with log_C0 always, log_C1/log_C2_dagger/log_C2 when the
    couplings are ferromagnetic and the interior horizontal ones nonzero
    (they carry reciprocals), and log_C3 when the grid is homogeneous with
    z and t inside (0, 1) at the working precision.  C0, C2t and C3 come
    from the code of the Pfaffian, cylinder and spectral routes.  The
    identity C2t = C0 C1 is verified whenever both sides exist.
    """
    with working_dps(digits):
        out = {"log_C0": log_C0(grid), "digits": digits}
        try:
            lc1, s1 = log_C1(grid)
            lc2d, s2d = log_C2_dagger(grid, digits)
        except DomainError:
            return out
        out.update(log_C1=lc1, sign_C1=s1, log_C2_dagger=lc2d, sign_C2_dagger=s2d)
        # C2t = C0*C1 must hold exactly up to rounding
        defect = abs(out["log_C0"] + lc1 - lc2d)
        if defect > mpf(10) ** (-mp.dps + 10) * (1 + abs(lc2d)) or s1 != s2d:
            raise ConsistencyError(f"constant identity C2t = C0 C1 violated by {defect}")
        lc2, s2 = log_C2(grid, digits)
        out["log_C2"] = lc2
        out["sign_C2"] = s2
        try:
            hom = homogeneous_from_grid(grid, digits)
        except PrecisionError:      # z or t rounds to 1 or 0: C3 has no digits
            hom = None
        if hom is not None:
            zm, tm = pm(hom.z)[1], pm(hom.t)[1]
            out["log_C3"] = log_C3(hom.z, zm, tm, grid.spec.L, grid.spec.M)
        return out


# --- eigenvector matrix and the det-Mx route --------------------------------


def eigvec_matrix(spectrum, digits=None):
    """Orthonormal M x M eigenvector matrix x; rows are modes, columns the
    odd positions m = -M+1, -M+3, ..., M-1.

    The below-critical mode is evaluated on the imaginary axis; its row comes
    out real because the normalization radicand changes sign along with the
    squared trigonometric factors.
    """
    digits = digits or spectrum.digits
    M, z, t = spectrum.M, spectrum.z, spectrum.t
    with working_dps(digits):
        zp, zm = pm(z)
        tp, tm = pm(t)
        X = mpmath.matrix(M, M)
        imag_tol = mpf(10) ** (-mp.dps + 10)
        for mu, md in enumerate(spectrum.modes):
            gam = md.sigma * md.gamma_hat
            lamp = mpmath.cosh(gam)
            lamm = mpmath.sinh(gam)
            phi = md.phi_signed
            rad = M * lamm ** 2 + zp * lamp - tp
            if rad == 0 or lamp == 1:
                raise PrecisionError("degenerate eigenvector normalization")
            pref = mpmath.sqrt(4 * t * z) * tm * zm * lamm / (
                mpmath.sqrt(mpc(rad)) * mpmath.sqrt(mpc(lamp - 1)))
            for j in range(M):
                m = 2 * j - M + 1
                val = pref * (mpmath.sin((M + 1 + m) * phi / 2) / ((1 - t) * (1 + z))
                              - mpmath.sin((M - 1 + m) * phi / 2) / ((1 + t) * (1 - z)))
                val = mpc(val)
                if abs(val.imag) > imag_tol * (1 + abs(val.real)):
                    raise ConsistencyError("eigenvector entry has a nonreal part")
                X[mu, j] = val.real
        return X


def logZ_via_detM(L, M, z, t, digits=40):
    """Validation route: Z = sqrt(C2) |det Mx| from the eigenvector matrix.

    The matrix mixes lambda^(L/2) with lambda^(-L/2), so the usable range is
    limited by cancellation: requires L * max(gamma_hat) <= digits*ln(10)/2.
    """
    with working_dps(digits):
        z, t = to_mpf(z), to_mpf(t)
        spectrum = find_modes(z, t, M, digits)
        Lm = to_mpf(L)
        guard = mpf(digits) * mpmath.log(mpf(10)) / 2
        worst = Lm * max(spectrum.gamma_hat)
        if worst > guard:
            raise PrecisionError(
                f"L*max(gamma_hat) = {mpmath.nstr(worst, 6)} exceeds the "
                f"cancellation guard {mpmath.nstr(guard, 6)}; "
                "use the factorized spectral route instead"
            )
        X = eigvec_matrix(spectrum, digits)
        Mx = mpmath.matrix(M, M)
        for mu, md in enumerate(spectrum.modes):
            gam = md.sigma * md.gamma_hat
            lp = mpmath.exp(gam * Lm / 2)
            lm = 1 / lp
            for j in range(M):
                Mx[mu, j] = (lp + lm) / 2 * X[mu, j] + (lp - lm) / 2 * X[mu, M - 1 - j]
        ld, s = log_abs_det(Mx)
        if s == 0:
            raise ConsistencyError("det Mx vanished")
        if Lm != int(Lm) or int(Lm) < 1:
            raise DomainError("the det-Mx route needs integer L >= 1")
        # homogeneous open grid on the fly for the constant C2
        grid = CouplingGrid.from_scalars(
            LatticeSpec(int(Lm), M), mpmath.atanh(z), mpmath.atanh(dual(t)))
        lc2, s2 = log_C2(grid, digits)
        if s2 <= 0:
            raise ConsistencyError("C2 came out nonpositive")
        return lc2 / 2 + ld
