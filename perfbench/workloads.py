"""The benchmark's workloads: inputs drawn from a seed, the timed evaluations,
and the untimed references and checks that judge each result.

Every evaluation runs at DIGITS = 40 through the library's public functions.
A check passes when a result lies within half a unit of the 40th significant
digit of a value computed apart from the route that produced it, so a result
moved by one unit in its 40th printed digit fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import mpmath
from mpmath import mp, mpf

from isingrect import brute_force, cylinder, pfaffian, qseries, spectral, thermo
from isingrect.lattice import PERIODIC, CouplingGrid, HomogeneousCouplings, LatticeSpec
from isingrect.numerics import DomainError, working_dps

DIGITS = 40
# K_c = log(1 + sqrt 2)/2, far past the working precision
with mp.workdps(80):
    KC = mpmath.nstr(mpmath.log(1 + mpmath.sqrt(2)) / 2, 70)


@dataclass
class Op:
    """One timed evaluation of a round."""

    label: str
    span: str                        # root span of the evaluation in a traced run
    run: Callable[[], object]
    known_fault: str | None = None   # why it fails on the current program
    states: int = 0                  # spin states the oracle sums over


def unit40(ref):
    """One unit in the 40th significant digit of ref."""
    with mp.workdps(30):
        return mpf(10) ** (mpmath.floor(mpmath.log10(abs(ref))) - (DIGITS - 1))


def agrees(x, ref):
    """x matches ref to within half a unit of ref's 40th significant digit."""
    if isinstance(x, BaseException) or isinstance(ref, BaseException):
        return False
    with mp.workdps(300):
        if ref == 0:
            return x == 0
        return abs(mpf(x) - mpf(ref)) < unit40(ref) / 2


def _memo(cache, key, compute):
    """compute() once per key; a reference that cannot be made fails its checks."""
    if key not in cache:
        try:
            cache[key] = compute()
        except Exception as exc:  # recorded; agrees() rejects it
            cache[key] = exc
    return cache[key]


def _draw_K(rng, lo, hi):
    """A coupling in [lo, hi) as a six-decimal string, exact at any precision."""
    return f"{rng.uniform(lo, hi):.6f}"


# ---------------------------------------------------------------------------
# spectral-sweep: rows as `isingrect sweep` computes them

@dataclass(frozen=True)
class Row:
    L: int
    M: int
    K: str


# (K band, sizes); each size L x M also runs as its rotation M x L.  The
# bands are narrow because the q-product cost grows with q: a band 0.01 wide
# moves it by about 10 %, which would make the cost of a round vary by seed.
SWEEP_BANDS = [
    (("0.200", "0.204"), [(16, 48)]),
    (("0.300", "0.304"), [(16, 32)]),
    (("0.400", "0.404"), [(24, 32), (16, 24)]),
    ((KC, KC), [(16, 32)]),
    (("0.450", "0.454"), [(16, 24)]),
    (("0.5", "0.5"), [(32, 96)]),
]
SWEEP_FAULT = (
    "logZ_spectral(32, 96) at K = 0.5 is wrong from the 35th digit "
    "(ordered-phase soft mode); its rotation fails with it"
)


def sweep_row(row):
    """thermo.report plus free_energy_pieces, as cli._sweep_point does."""
    rep = thermo.report(row.L, row.M, row.K, row.K, DIGITS)
    try:
        pieces = qseries.free_energy_pieces(row.K, DIGITS)
    except DomainError:
        pieces = None  # too close to critical for the products; sweep leaves it blank
    return rep, pieces


def casimir_reference(L, M, K):
    """(1/M) d/dL log det(1 + Y) by a central difference with step 1e-25.

    The precision is raised until it covers log det(1 + Y) itself: when
    L >> M that residual is tiny and would otherwise round to zero.
    """
    digits = 80
    while True:
        with working_dps(digits):
            hom = HomogeneousCouplings.from_K(K, K, digits)
            modes = spectral.find_modes(hom.z, hom.t, M, digits)
            rs = spectral.residual_system(modes, L, digits)
            size = abs(sum(rs.Y[i, i] for i in range(M // 2)))
            need = max(digits, 65 + int(-mpmath.log10(size)) + 1) if size else 2 * digits
            if need > digits:
                digits = need
                continue
            h = mpf(10) ** -25
            lo = spectral.log_zsres(spectral.residual_system(modes, L - h, digits))
            hi = spectral.log_zsres(spectral.residual_system(modes, L + h, digits))
            return (hi - lo) / (2 * h) / M


def onsager_f_b(K):
    """Onsager's bulk free energy per site, -log Z / (L M), by quadrature."""
    with working_dps(DIGITS + 20):
        K = mpf(K)
        c, s = mpmath.cosh(2 * K), mpmath.sinh(2 * K)
        kappa2 = (2 * s / c ** 2) ** 2
        integral = mpmath.quad(
            lambda th: mpmath.log((1 + mpmath.sqrt(1 - kappa2 * mpmath.sin(th) ** 2)) / 2),
            [0, mpmath.pi / 2])
        return -(mpmath.log(2 * c) + integral / mpmath.pi)


def near_critical(K):
    """Close enough to K_c that the q-products may be left blank."""
    with mp.workdps(80):
        return abs(mpf(K) - mpf(KC)) < mpf("1e-30")


class SpectralSweep:
    name = "spectral-sweep"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.rows = []
        for (lo, hi), sizes in SWEEP_BANDS:
            K = lo if lo == hi else _draw_K(rng, float(lo), float(hi))
            for L, M in sizes:
                self.rows += [Row(L, M, K), Row(M, L, K)]
        self.ops = [
            Op(f"row {r.L}x{r.M} K={r.K[:8]}", "sweep_row",
               (lambda r=r: sweep_row(r)),
               SWEEP_FAULT if (r.K, {r.L, r.M}) == ("0.5", {32, 96}) else None)
            for r in self.rows
        ]
        self._casimir = {}
        self._f_b = {}

    def warmup(self):
        sweep_row(Row(16, 12, "0.25"))

    def start_round(self):
        pass

    def casimir_ref(self, row):
        return _memo(self._casimir, row, lambda: casimir_reference(row.L, row.M, row.K))

    def f_b_ref(self, K):
        return _memo(self._f_b, K, lambda: onsager_f_b(K))

    def check(self, i, results):
        """Rotation, Casimir central difference and Onsager's f_b, cheapest first."""
        row = self.rows[i]
        partner = results[i ^ 1]   # rows come in rotation pairs
        value = results[i]
        if isinstance(value, BaseException) or isinstance(partner, BaseException):
            return False
        rep, pieces = value
        if not agrees(rep.logZ, partner[0].logZ):
            return False
        if not agrees(rep.casimir_strip, self.casimir_ref(row)):
            return False
        if pieces is None:
            return near_critical(row.K)
        return agrees(pieces.f_b, self.f_b_ref(row.K))


# ---------------------------------------------------------------------------
# grid-routes: Pfaffian against cylinder on random grids, and long cylinders

# One round in run order: per-bond grids ("grid", L, M, bc), each evaluated
# by the Pfaffian and then by the cylinder, and long homogeneous open
# cylinders ("long", L, M, K, fault); the faults are relative errors at 40
# digits against logZ_spectral at 80 digits.  The four 6x6 grids put eight
# Pfaffian evaluations of about equal cost at the middle rank, spread over
# the round, so that op_p50_s is a median over many moments of a run and not
# one evaluation's time.
GRID_ROUND = [
    ("grid", 6, 6, "open"),
    ("long", 64, 16, "0.2", "corner-determinant digit loss: off by a relative 2.5e-34"),
    ("grid", 6, 6, PERIODIC),
    ("long", 48, 12, "0.35", "corner-determinant digit loss: off by a relative 3.5e-28"),
    ("grid", 8, 8, "open"),
    ("grid", 6, 6, "open"),
    ("long", 64, 16, "0.35", "corner-determinant digit loss: off by a relative 4.4e-18"),
    ("grid", 6, 6, PERIODIC),
    ("long", 16, 12, "0.2", None),
]


def random_grid(rng, L, M, bc, lo=0.05, hi=0.5):
    """Per-bond ferromagnetic couplings drawn uniformly from [lo, hi)."""
    Kh = [[_draw_K(rng, lo, hi) if l < L - 1 else "0" for m in range(M)] for l in range(L)]
    Kv = [[_draw_K(rng, lo, hi) if m < M - 1 or bc == PERIODIC else "0" for m in range(M)]
          for l in range(L)]
    return CouplingGrid(LatticeSpec(L, M, bc), Kh, Kv, DIGITS)


def spectral_reference(L, M, K, digits=80):
    """logZ of the homogeneous open rectangle by the spectral route at 80 digits."""
    with working_dps(digits):
        hom = HomogeneousCouplings.from_K(K, K, digits)
        return spectral.logZ_spectral(L, M, hom.z, hom.t, digits)


class GridRoutes:
    name = "grid-routes"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.ops = []
        self.refs = []   # index of the partner evaluation, or the cylinder's (L, M, K)
        for kind, L, M, *rest in GRID_ROUND:
            if kind == "grid":
                bc, = rest
                g = random_grid(rng, L, M, bc)
                tag = f"{L}x{M} {bc}"
                i = len(self.ops)
                self.ops += [Op(f"pfaffian {tag}", "eval.pfaffian",
                                lambda g=g: pfaffian.logZ_pfaffian(g, DIGITS)),
                             Op(f"cylinder {tag}", "eval.cylinder",
                                lambda g=g: cylinder.logZ_cylinder(g, DIGITS))]
                self.refs += [i + 1, i]
            else:
                K, fault = rest
                g = CouplingGrid.from_scalars(LatticeSpec(L, M), K, K, DIGITS)
                self.ops.append(Op(f"cylinder {L}x{M} K={K}", "eval.cylinder",
                                   lambda g=g: cylinder.logZ_cylinder(g, DIGITS), fault))
                self.refs.append((L, M, K))
        # a size between the timed grids, so that set-up is more than imports
        self._warm = random_grid(random.Random(seed + 1), 6, 8, "open")
        self._spectral = {}

    def warmup(self):
        pfaffian.logZ_pfaffian(self._warm, DIGITS)
        cylinder.logZ_cylinder(self._warm, DIGITS)

    def start_round(self):
        pass

    def spectral_ref(self, key):
        return _memo(self._spectral, key, lambda: spectral_reference(*key))

    def check(self, i, results):
        ref = self.refs[i]
        if isinstance(ref, int):
            return agrees(results[i], results[ref])
        return agrees(results[i], self.spectral_ref(ref))


# ---------------------------------------------------------------------------
# oracle-enum: brute_force_logZ on coupling scans and per-bond grids

# (L, M, bc, anisotropic, scan length); the first evaluation on a lattice
# enumerates its states, the rest reuse the enumeration
ORACLE_SCANS = [
    (4, 5, "open", False, 8),
    (4, 5, "open", True, 5),
    (5, 4, PERIODIC, False, 8),
    (1, 20, "open", False, 8),      # a chain
]
PER_BOND_SHAPES = [(3, 4, "open"), (2, 7, "open"), (3, 5, "open"), (3, 5, PERIODIC),
                   (4, 4, "open"), (4, 4, PERIODIC)]


def chain_logZ(n, K):
    """Open chain of n spins: log 2 + (n - 1) log(2 cosh K)."""
    with working_dps(DIGITS):
        return mpmath.log(2) + (n - 1) * mpmath.log(2 * mpmath.cosh(mpf(K)))


def clear_oracle_caches():
    """Forget every enumeration, so that a first evaluation stays first."""
    for obj in vars(brute_force).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


class OracleEnum:
    name = "oracle-enum"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.ops = []
        self.grids = []
        self.chains = {}   # op index -> (n, K) for the closed form
        for L, M, bc, aniso, n in ORACLE_SCANS:
            spec = LatticeSpec(L, M, bc)
            for k in range(n):
                Kh = _draw_K(rng, 0.1, 0.9)
                Kv = _draw_K(rng, 0.1, 0.9) if aniso else Kh
                kind = "first_on_lattice" if k == 0 else "repeat_on_lattice"
                self._add(CouplingGrid.from_scalars(spec, Kh, Kv, DIGITS), kind,
                          f"{L}x{M} {bc} Kh={Kh} Kv={Kv}")
                if L == 1:
                    self.chains[len(self.ops) - 1] = (M, Kv)
        for L, M, bc in PER_BOND_SHAPES:
            self._add(random_grid(rng, L, M, bc, 0.1, 0.9), "per_bond", f"{L}x{M} {bc} per bond")
        # one warm-up per enumeration strategy, on lattices not in the timed list
        self._warm = [CouplingGrid.from_scalars(LatticeSpec(5, 4), "0.3", "0.3", DIGITS),
                      random_grid(random.Random(seed + 1), 2, 6, "open", 0.1, 0.9)]
        self._pfaffian = {}

    def _add(self, grid, kind, label):
        self.grids.append(grid)
        self.ops.append(Op(label, f"brute_force.{kind}",
                           lambda g=grid: brute_force.brute_force_logZ(g, DIGITS),
                           states=1 << grid.spec.nsites))

    def warmup(self):
        clear_oracle_caches()
        for grid in self._warm:
            brute_force.brute_force_logZ(grid, DIGITS)

    def start_round(self):
        clear_oracle_caches()

    def reference(self, i):
        return _memo(self._pfaffian, i, lambda: pfaffian.logZ_pfaffian(self.grids[i], DIGITS))

    def check(self, i, results):
        """Pfaffian at 40 digits, and the closed form on chains."""
        value = results[i]
        if isinstance(value, BaseException):
            return False
        if not agrees(value.logZ, self.reference(i)):
            return False
        return i not in self.chains or agrees(value.logZ, chain_logZ(*self.chains[i]))


WORKLOADS = {w.name: w for w in (SpectralSweep, GridRoutes, OracleEnum)}
