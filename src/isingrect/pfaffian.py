"""Dimer/Pfaffian route: Z = sqrt(C0 det A) for an antisymmetric 4LM x 4LM A.

The matrix acts on four decoration nodes per site; its determinant is the
squared Pfaffian, so det A >= 0 for every physical coupling grid and the
square root is safe.  The vertical direction is the cylinder's home; open
vertical boundaries are realized by the zero wrap couplings already encoded
in the grid.

The nodes are ordered site-major, node b of site (l, m) at 4 (l M + m) + b,
so every nonzero entry has |i - j| <= 4M + 1: the site's own 4 x 4 block,
the vertical bond to the next site (5 apart, 4M - 5 on the wrap) and the
horizontal bond to the next column (4M + 1 apart).  log_abs_det follows
that band, and partial pivoting at most doubles its upper half, so the
elimination costs O(LM (4M)^2) operations instead of the O((4LM)^3) of a
dense one.  det A does not depend on the node order.

A block Schur reduction to an LM x LM block-tridiagonal complement provides
an internal factorization check (even M only).
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

from .lattice import ReducedCouplings, log_C0
from .numerics import ConsistencyError, DomainError, eye, log_abs_det, working_dps


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


# the decoration nodes of one site: entry (a, b) of the antisymmetric 4 x 4
# block for a < b
_SKELETON = {(0, 1): 1, (0, 2): -1, (0, 3): -1, (1, 2): 1, (1, 3): -1, (2, 3): 1}


def build_A(grid, digits=40):
    """Assemble the antisymmetric decoration matrix in site-major order.

    Node b of site (l, m) is 4 (l M + m) + b.  Each site contributes its
    4 x 4 skeleton, the bond up to (l, m + 1) joins its node 0 to that
    site's node 1 (on the wrap, (l, 0) with a minus sign), and the bond to
    (l + 1, m) joins its node 2 to that site's node 3.  Antisymmetry is
    asserted over the stored entries.
    """
    with working_dps(digits):
        red = ReducedCouplings.from_grid(grid)
        L, M = grid.spec.L, grid.spec.M
        entries = {}

        def put(i, j, v):           # +v at (i, j), -v at (j, i)
            entries[i, j] = entries.get((i, j), 0) + v
            entries[j, i] = entries.get((j, i), 0) - v

        for l in range(L):
            for m in range(M):
                s = 4 * (l * M + m)
                for (a, b), v in _SKELETON.items():
                    put(s + a, s + b, v)
                if m + 1 < M:
                    put(s, s + 5, red.zv[l][m])
                else:
                    put(s, 4 * l * M + 1, -red.zv[l][m])
                if l + 1 < L:
                    put(s + 2, s + 4 * M + 3, red.z[l][m])
        n = 4 * grid.spec.nsites
        A = mpmath.matrix(n, n)
        for (i, j), v in entries.items():
            if i == j or v != -entries[j, i]:
                raise ConsistencyError("decoration matrix is not antisymmetric")
            A[i, j] = v
        return A


def logZ_pfaffian(grid, digits=40):
    """log Z = (log C0 + log det A)/2; det A must come out positive."""
    A = build_A(grid, digits)
    with working_dps(digits):
        ld, sign = log_abs_det(A)
        if sign <= 0:
            raise ConsistencyError(
                "det A is not positive; the decoration assembly is inconsistent"
            )
        return (log_C0(grid) + ld) / 2


def _schur_blocks(grid, red):
    """Explicit diagonal/off-diagonal blocks of the LM x LM Schur complement."""
    L, M = grid.spec.L, grid.spec.M
    one = eye(M)
    Hm = _shift_wrap(M)
    A_plus, A_minus, D_blocks, B_blocks = [], [], [], []
    for l in range(L):
        Z = mpmath.matrix(M, M)
        for m in range(M):
            for mm in range(M):
                v = Hm[m, mm]
                if v:
                    Z[m, mm] = red.zv[l][m] * v
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
            zdiag[m, m] = red.z[l][m]
        B_blocks.append(-(D ** -1) * zdiag)
    A_diag = [A_minus[0]]
    for l in range(1, L):
        zdiag = mpmath.matrix(M, M)
        for m in range(M):
            zdiag[m, m] = red.z[l - 1][m]
        A_diag.append(A_minus[l] + zdiag * A_plus[l - 1] * zdiag)
    return A_diag, B_blocks


def log_det_reduced(grid, red):
    """(log|.|, sign) of the minor left after dropping the fourth node row/col.

    Closed product form: prod_ell (prod_{m odd} zv + prod_{m even} zv)^2,
    with m counted 1-based.
    """
    L, M = grid.spec.L, grid.spec.M
    lg, sign = mpf(0), 1
    for l in range(L):
        podd, peven = mpf(1), mpf(1)
        for m in range(M):
            if m % 2 == 0:
                podd *= red.zv[l][m]
            else:
                peven *= red.zv[l][m]
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
        red = ReducedCouplings.from_grid(grid)
        for l in range(grid.spec.L):
            for m in range(M - 1):
                if red.zv[l][m] == 0:
                    raise DomainError(
                        "Schur blocks need nonzero vertical couplings on rows m < M"
                    )
        ldA, sA = log_abs_det(build_A(grid, digits))
        lg_red, s_red = log_det_reduced(grid, red)
        if s_red == 0:
            raise DomainError("reduced minor vanishes; factorization undefined")
        A_diag, B_blocks = _schur_blocks(grid, red)
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
