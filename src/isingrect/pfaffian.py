"""Dimer/Pfaffian route: Z = sqrt(C0 det A) for an antisymmetric 4LM x 4LM A.

The matrix acts on four decoration nodes per site; its determinant is the
squared Pfaffian, so det A >= 0 for every physical coupling grid and the
square root is safe.  The vertical direction is the cylinder's home; open
vertical boundaries are realized by the zero wrap couplings already encoded
in the grid.

The nodes are ordered site-major, node b of site (l, m) at 4 (l M + m) + b,
so every nonzero entry has |i - j| <= 4M + 1: the site's own 4 x 4 block,
the vertical bond to the next site (5 apart, 4M - 5 on the wrap) and the
horizontal bond to the next column (4M + 1 apart).  build_A returns the
matrix as a list of rows, and log_abs_det follows their band; partial
pivoting at most doubles its upper half, so the elimination costs
O(LM (4M)^2) operations instead of the O((4LM)^3) of a dense one.  det A
does not depend on the node order.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

from .numerics import ConsistencyError, log_abs_det, working_dps


# the decoration nodes of one site: entry (a, b) of the antisymmetric 4 x 4
# block for a < b
_SKELETON = {(0, 1): 1, (0, 2): -1, (0, 3): -1, (1, 2): 1, (1, 3): -1, (2, 3): 1}


def build_A(grid, digits=40):
    """The antisymmetric decoration matrix in site-major order, as rows.

    The result is a list of 4LM rows of 4LM entries, each an int (the
    skeleton's +-1, and 0 off the band) or an mpf at the working
    precision; log_abs_det takes it as it is.  Node b of site (l, m) is
    4 (l M + m) + b.  Each site contributes its 4 x 4 skeleton, the bond
    up to (l, m + 1) joins its node 0 to that site's node 1 with weight
    tanh Kv (on the wrap, (l, 0) with a minus sign), and the bond to
    (l + 1, m) joins its node 2 to that site's node 3 with weight tanh Kh.
    Antisymmetry is asserted over the stored entries.
    """
    with working_dps(digits):
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
                    put(s, s + 5, mpmath.tanh(grid.Kv[l][m]))
                else:
                    put(s, 4 * l * M + 1, -mpmath.tanh(grid.Kv[l][m]))
                if l + 1 < L:
                    put(s + 2, s + 4 * M + 3, mpmath.tanh(grid.Kh[l][m]))
        n = 4 * grid.spec.nsites
        A = [[0] * n for _ in range(n)]
        for (i, j), v in entries.items():
            if i == j or v != -entries[j, i]:
                raise ConsistencyError("decoration matrix is not antisymmetric")
            A[i][j] = v
        return A


def log_C0(grid):
    """log of the Pfaffian prefactor 4^(LM) prod cosh^2 Kh prod cosh^2 Kv."""
    L, M = grid.spec.L, grid.spec.M
    total = L * M * mpmath.log(mpf(4))
    for l in range(L - 1):
        for m in range(M):
            total += 2 * mpmath.log(mpmath.cosh(grid.Kh[l][m]))
    for l in range(L):
        for m in range(M):
            total += 2 * mpmath.log(mpmath.cosh(grid.Kv[l][m]))
    return total


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
