"""Ground-truth partition function by exact enumeration of all 2^(LM) states.

Two equivalent enumeration strategies share the same result contract:

* a vectorized bond-disagreement count (numpy) when the nonzero couplings
  take few distinct values; the per-(L, M) disagreement histogram is exact
  integer data and is cached, so repeated evaluations at new couplings cost
  only a small high-precision sum;
* a Gray-code walk with incremental energy updates for arbitrary grids.

Both accumulate with a running maximum subtracted, and both are exact up to
rounding at the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from .numerics import DomainError, working_dps

MAX_SITES = 24
_CHUNK = 1 << 20

# counting path only pays off while the histogram stays small
_MAX_DISTINCT = 4


@dataclass(frozen=True)
class OracleResult:
    logZ: mpf
    nconfig: int
    digits: int


def _group_key(grid):
    """Distinct nonzero couplings and per-bond group labels, or None."""
    bonds = grid.bonds()
    values = []
    labels = []
    for i, j, K in bonds:
        for gi, v in enumerate(values):
            if v == K:
                labels.append(gi)
                break
        else:
            if len(values) >= _MAX_DISTINCT:
                return None
            values.append(K)
            labels.append(len(values) - 1)
    return bonds, values, labels


@lru_cache(maxsize=32)
def _disagreement_histogram(nsites, bond_sig):
    """Joint histogram of per-group bond disagreement counts over all states.

    bond_sig is a tuple of (site_i, site_j, group) triples.  Returns an
    integer array of shape prod(n_g + 1) raveled over group counts.
    """
    import numpy as np  # here, so that importing isingrect does not load numpy

    ngroups = 1 + max(g for _, _, g in bond_sig)
    sizes = [0] * ngroups
    for _, _, g in bond_sig:
        sizes[g] += 1
    dims = [s + 1 for s in sizes]
    hist = np.zeros(int(np.prod(dims)), dtype=np.int64)
    total = 1 << nsites
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        cfg = np.arange(start, stop, dtype=np.uint64)
        idx = np.zeros(cfg.shape, dtype=np.int64)
        for g in range(ngroups):
            cnt = np.zeros(cfg.shape, dtype=np.int64)
            for i, j, gg in bond_sig:
                if gg == g:
                    bit = ((cfg >> np.uint64(i)) ^ (cfg >> np.uint64(j))) & np.uint64(1)
                    cnt += bit.astype(np.int64)
            idx = idx * dims[g] + cnt
        hist += np.bincount(idx, minlength=hist.size)
    return hist, tuple(dims), tuple(sizes)


def _logZ_counting(grid, bonds, values, labels):
    nsites = grid.spec.nsites
    bond_sig = tuple((i, j, g) for (i, j, _), g in zip(bonds, labels))
    hist, dims, sizes = _disagreement_histogram(nsites, bond_sig)
    # E(counts) = sum_g K_g * (n_g - 2 c_g); disagreeing bonds flip sign
    emax = sum(abs(v) * s for v, s in zip(values, sizes))
    total = mpf(0)
    for flat, n in enumerate(hist):
        if n == 0:
            continue
        rest = flat
        E = mpf(0)
        for g in reversed(range(len(dims))):
            c = rest % dims[g]
            rest //= dims[g]
            E += values[g] * (sizes[g] - 2 * c)
        total += int(n) * mpmath.exp(E - emax)
    return emax + mpmath.log(total)


def _logZ_gray(grid, bonds):
    """Gray-code enumeration; O(1) bond work per visited configuration."""
    nsites = grid.spec.nsites
    neighbors = [[] for _ in range(nsites)]
    for i, j, K in bonds:
        neighbors[i].append((j, K))
        neighbors[j].append((i, K))
    spins = [1] * nsites
    E = sum(K for _, _, K in bonds)
    emax = sum(abs(K) for _, _, K in bonds)
    total = mpmath.exp(E - emax)
    for step in range(1, 1 << nsites):
        b = (step & -step).bit_length() - 1  # Gray code: flip lowest set bit
        dE = mpf(0)
        for j, K in neighbors[b]:
            dE += K * spins[j]
        E -= 2 * spins[b] * dE
        spins[b] = -spins[b]
        total += mpmath.exp(E - emax)
    return emax + mpmath.log(total)


def brute_force_logZ(grid, digits=40):
    """Exact log Z by summation over every spin configuration.

    Refuses lattices with more than 24 sites; enumeration beyond that is a
    bug, not a feature.
    """
    nsites = grid.spec.nsites
    if nsites > MAX_SITES:
        raise DomainError(
            f"brute force enumeration is limited to {MAX_SITES} sites, got {nsites}"
        )
    with working_dps(digits):
        bonds = grid.bonds()
        if not bonds:
            logZ = nsites * mpmath.log(mpf(2))
        else:
            grouped = _group_key(grid)
            if grouped is not None:
                logZ = _logZ_counting(grid, *grouped)
            else:
                logZ = _logZ_gray(grid, bonds)
        return OracleResult(logZ=logZ, nconfig=1 << nsites, digits=digits)
