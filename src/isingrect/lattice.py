"""Lattice geometry, per-bond and homogeneous couplings, and duality.

Conventions: the lattice has L columns and M rows; site (ell, m) with
ell = 1..L, m = 1..M.  Horizontal bonds couple (ell, m)-(ell+1, m) and carry
the reduced coupling Kh[ell][m] (in units of k_B T), with the open-boundary
column fixed to Kh[L][.] = 0.  Vertical bonds couple (ell, m)-(ell, m+1);
the lattice is a cylinder when bc_vertical == "periodic", and open when the
wrap couplings Kv[.][M] are zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import mpmath
from mpmath import mpf

from .numerics import DomainError, PrecisionError, to_mpf, working_dps

OPEN = "open"
PERIODIC = "periodic"


def pm(a):
    """The half-sum/half-difference pair a_pm = (a ± 1/a)/2, so a^(±1) = a+ ± a-."""
    a = to_mpf(a)
    if a == 0:
        raise DomainError("pm(a) requires a != 0")
    inv = 1 / a
    return (a + inv) / 2, (a - inv) / 2


def dual(z):
    """Dual coupling t = (1 - z)/(1 + z); an involution on (-1, 1]."""
    z = to_mpf(z)
    if z == -1:
        raise DomainError("dual(z) requires z != -1")
    return (1 - z) / (1 + z)


def critical_coupling_isotropic():
    """Self-dual point of the isotropic square lattice: z_c = sqrt(2) - 1.

    Returns (z_c, K_c) with K_c = atanh(z_c).
    """
    zc = mpmath.sqrt(mpf(2)) - 1
    return zc, mpmath.atanh(zc)


@dataclass(frozen=True)
class LatticeSpec:
    """L columns, M rows, and the vertical boundary condition."""

    L: int
    M: int
    bc_vertical: str = OPEN

    def __post_init__(self):
        if self.L < 1 or self.M < 1:
            raise DomainError(f"lattice must have L, M >= 1, got {self.L}x{self.M}")
        if self.bc_vertical not in (OPEN, PERIODIC):
            raise DomainError(f"bc_vertical must be 'open' or 'periodic', got {self.bc_vertical!r}")

    @property
    def nsites(self):
        return self.L * self.M


class CouplingGrid:
    """Per-bond reduced couplings on the lattice.

    Kh and Kv are L x M nested tuples of mpf, 0-indexed as Kh[ell-1][m-1].
    Boundary zeros (Kh at ell = L; Kv at m = M when open) are enforced at
    construction.
    """

    def __init__(self, spec, Kh, Kv, digits=40):
        L, M = spec.L, spec.M
        with working_dps(digits):
            # conversion re-rounds to the active precision, so set it first
            Kh = [[to_mpf(Kh[l][m]) for m in range(M)] for l in range(L)]
            Kv = [[to_mpf(Kv[l][m]) for m in range(M)] for l in range(L)]
        for m in range(M):
            if Kh[L - 1][m] != 0:
                raise DomainError(f"Kh must vanish on the last column, got Kh[{L},{m + 1}] != 0")
        if spec.bc_vertical == OPEN:
            for l in range(L):
                if Kv[l][M - 1] != 0:
                    raise DomainError(
                        f"open vertical boundary requires Kv[{l + 1},{M}] = 0"
                    )
        for row in Kh + Kv:
            for x in row:
                if not mpmath.isfinite(x):
                    raise DomainError("couplings must be finite")
        self.spec = spec
        self.digits = digits
        self.Kh = tuple(tuple(r) for r in Kh)
        self.Kv = tuple(tuple(r) for r in Kv)

    @classmethod
    def from_scalars(cls, spec, Kh, Kv, digits=40):
        """Homogeneous grid with the boundary zeros filled in."""
        L, M = spec.L, spec.M
        with working_dps(digits):
            Kh = to_mpf(Kh)
            Kv = to_mpf(Kv)
        kh = [[Kh if l < L - 1 else mpf(0) for m in range(M)] for l in range(L)]
        last_v = Kv if spec.bc_vertical == PERIODIC else mpf(0)
        kv = [[Kv if m < M - 1 else last_v for m in range(M)] for l in range(L)]
        return cls(spec, kh, kv, digits)

    @classmethod
    def from_csv(cls, path, bc_vertical=OPEN, digits=40):
        """Load a grid from CSV with header (ell, m, Kh, Kv), 1-based indices."""
        cells = {}
        with open(path, newline="") as fh, working_dps(digits):
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:4]] != ["ell", "m", "kh", "kv"]:
                raise DomainError("grid CSV requires the header 'ell,m,Kh,Kv'")
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                if len(row) < 4:
                    raise DomainError(f"grid CSV row {row!r} needs four cells")
                try:
                    ell, m = int(row[0]), int(row[1])
                except ValueError as exc:
                    raise DomainError(f"grid CSV row {row!r} needs integer ell, m") from exc
                if (ell, m) in cells:
                    raise DomainError(f"duplicate grid cell ({ell},{m})")
                cells[(ell, m)] = (to_mpf(row[2].strip()), to_mpf(row[3].strip()))
        if not cells:
            raise DomainError("grid CSV contains no cells")
        L = max(e for e, _ in cells)
        M = max(m for _, m in cells)
        if len(cells) != L * M:
            raise DomainError(f"grid CSV must list every cell of the {L}x{M} lattice once")
        spec = LatticeSpec(L, M, bc_vertical)
        Kh = [[cells[(l + 1, m + 1)][0] for m in range(M)] for l in range(L)]
        Kv = [[cells[(l + 1, m + 1)][1] for m in range(M)] for l in range(L)]
        return cls(spec, Kh, Kv, digits)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ell", "m", "Kh", "Kv"])
            for l in range(self.spec.L):
                for m in range(self.spec.M):
                    w.writerow([l + 1, m + 1,
                                mpmath.nstr(self.Kh[l][m], self.digits),
                                mpmath.nstr(self.Kv[l][m], self.digits)])

    def bonds(self):
        """All nonzero bonds as (site_i, site_j, K) with site = (ell-1)*M + (m-1)."""
        L, M = self.spec.L, self.spec.M
        out = []
        for l in range(L):
            for m in range(M):
                i = l * M + m
                if l + 1 < L and self.Kh[l][m] != 0:
                    out.append((i, (l + 1) * M + m, self.Kh[l][m]))
                if m + 1 < M:
                    if self.Kv[l][m] != 0:
                        out.append((i, l * M + m + 1, self.Kv[l][m]))
                elif self.spec.bc_vertical == PERIODIC and self.Kv[l][m] != 0:
                    out.append((i, l * M, self.Kv[l][m]))
        return out


@dataclass(frozen=True)
class HomogeneousCouplings:
    """Homogeneous anisotropic couplings for the open-open rectangle: the
    spectral route's one coupling record.

    z is the bulk horizontal tanh coupling (columns ell < L), t the dual of
    the bulk vertical tanh coupling (rows m < M).  The record also holds the
    pairs z+-, t+- of pm and B = t- z+/z-, which are all that the mode
    polynomial, the modes and the strip factor read of the couplings.  They
    are formed once, at the precision that is active when the record is
    built, so a record built at the working precision serves every step.
    """

    z: mpf
    t: mpf
    zp: mpf = field(init=False)
    zm: mpf = field(init=False)
    tp: mpf = field(init=False)
    tm: mpf = field(init=False)
    B: mpf = field(init=False)

    def __post_init__(self):
        if not (0 < self.z < 1 and 0 < self.t < 1):
            raise DomainError("homogeneous couplings require 0 < z < 1 and 0 < t < 1")
        zp, zm = pm(self.z)
        tp, tm = pm(self.t)
        for name, value in (("zp", zp), ("zm", zm), ("tp", tp), ("tm", tm),
                            ("B", tm * zp / zm)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_K(cls, Kh, Kv, digits=40):
        """Build from reduced couplings Kh, Kv > 0, with the pairs at
        `digits`.

        A positive coupling whose z or t rounds to 0 or 1 at the working
        precision raises PrecisionError; K <= 0 raises DomainError.
        """
        with working_dps(digits):
            Kh, Kv = to_mpf(Kh), to_mpf(Kv)
            if not (Kh > 0 and Kv > 0):
                raise DomainError("homogeneous couplings require Kh > 0 and Kv > 0")
            z = mpmath.tanh(Kh)
            t = dual(mpmath.tanh(Kv))
            if not (0 < z < 1 and 0 < t < 1):
                raise PrecisionError(
                    f"z = tanh Kh or t = (1 - tanh Kv)/(1 + tanh Kv) rounds to 0 or 1 "
                    f"at {digits} digits"
                )
            return cls(z, t)
