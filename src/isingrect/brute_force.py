"""Ground-truth partition function: an exact sum over every spin state.

The sum is a transfer product over the 2^n states of one column of n sites:
a bond inside a column is a diagonal factor, a bond between columns the 2x2
butterfly v'(s) = e^K v(s) + e^(-K) v(s ^ bit).  The column runs along the
shorter side of an open lattice (transposed when L < M, so a 1 x N chain has
n = 1) and along the ring of a cylinder (n = M); n > MAX_COLUMN is refused
before anything is allocated.

Each bond's larger weight e^|K| is factored out, so every factor is
w = e^(-2|K|) <= 1, one mp exp per distinct coupling.  Entries are Python
ints with a shared binary exponent, rescaled once per column.  All weights
are positive, so nothing cancels: each truncation costs under one unit of
an entry of at least 2^(minbits - 1), and after S steps Z is off by a
relative S 2^(4 - minbits) at most.  This certificate is checked on every
call: a sum whose minbits falls short of the working precision is re-run
wider, and one that needs more than MAX_SPREAD_BITS extra bits raises
PrecisionError.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .lattice import PERIODIC
from .numerics import DomainError, PrecisionError, working_dps

# the longest column: the sum holds 2^MAX_COLUMN entries
MAX_COLUMN = 16

# widest spread of one column's entries, in bits, that the sum carries
MAX_SPREAD_BITS = 1 << 13

# bits kept beyond the working precision after the error bound
_GUARD_BITS = 8


@dataclass(frozen=True, slots=True)
class OracleResult:
    logZ: mpf
    nconfig: int
    digits: int


def column_length(spec):
    """Sites in one column of the sum: min(L, M) when open, M on a cylinder."""
    return min(spec.L, spec.M) if spec.bc_vertical != PERIODIC else spec.M


def _transfer_sum(n, within, between, bits, weights):
    """(Z as int, binary exponent, minbits, steps) with Z = int * 2^exponent.

    weights[K] = (man, sh) is e^(-2|K|) = man / 2^sh for every coupling K.
    """
    size = 1 << n
    top = size >> 1
    v = [1 << bits] * size
    exponent = -bits
    minbits = bits + 1
    steps = 0
    parity = {}   # (row_a, row_b) -> 1 where the two spins disagree, per state
    for c, bonds in enumerate(within):
        if c:
            # the rotation brings each row in turn to the top bit, and after
            # n steps the layout is back where it started
            for row in reversed(range(n)):
                K = between[c][row]
                man, sh = weights[K]
                lo, hi = v[:top], v[top:]
                v = [0] * size
                a = [x + (y * man >> sh) for x, y in zip(lo, hi)]
                b = [y + (x * man >> sh) for x, y in zip(lo, hi)]
                v[0::2], v[1::2] = (a, b) if K > 0 else (b, a)
                steps += 1
        for ra, rb, K in bonds:
            if (ra, rb) not in parity:
                parity[ra, rb] = [(s >> ra ^ s >> rb) & 1 for s in range(size)]
            man, sh = weights[K]
            hit = 1 if K > 0 else 0   # penalise disagreement when ferromagnetic
            v = [x * man >> sh if p == hit else x for x, p in zip(v, parity[ra, rb])]
            steps += 1
        # every truncation so far in this column, and the shift's own, cost
        # under one unit of an entry at least this small
        shift = max(v).bit_length() - bits - 1
        minbits = min(minbits, min(v).bit_length() - max(shift, 0))
        v = [x >> shift for x in v] if shift >= 0 else [x << -shift for x in v]
        exponent += shift
        steps += 1
    return sum(v), exponent, minbits, steps


def brute_force_logZ(grid, digits=40):
    """Exact log Z by a transfer sum over every spin configuration.

    Raises DomainError past MAX_COLUMN and PrecisionError past MAX_SPREAD_BITS.
    """
    L, M = grid.spec.L, grid.spec.M
    n = column_length(grid.spec)
    if n > MAX_COLUMN:
        raise DomainError(
            f"brute force enumeration is limited to columns of {MAX_COLUMN} sites "
            f"(2^{MAX_COLUMN} states), got {n} on the {L}x{M} {grid.spec.bc_vertical} lattice")
    # within[c]: (row_a, row_b, K) for each bond inside column c;
    # between[c][row]: the coupling to column c - 1 on that row, 0 if none
    within = [[] for _ in range(L * M // n)]
    between = [[0] * n for _ in within]
    for i, j, K in grid.bonds():
        # (column, row) is (l, m), or (m, l) when the columns run along the rows
        (ci, ri), (cj, rj) = [divmod(x, M)[::-1] if n < M else divmod(x, M) for x in (i, j)]
        if ci == cj:
            within[ci].append((ri, rj, K))
        else:
            between[max(ci, cj)][ri] = K
    with working_dps(digits):
        strength = [sum(abs(K) for K in row) + sum(abs(K) for _, _, K in bonds)
                    for row, bonds in zip(between, within)]
        floor = mp.prec + _GUARD_BITS + 4   # minbits - log2(steps) must reach this
        need = floor + (len(within) * (2 * n + 1)).bit_length()
        # a column's entries span at most e^(2 sum |K|) over the bonds it touches
        bits = need + int(mpmath.ceil(2 * max(strength) / mpmath.ln2)) + 2
        couplings = {K for row in between for K in row} | {K for bd in within for *_, K in bd}
        while bits - need <= MAX_SPREAD_BITS:
            with mp.workprec(bits + 10):
                weights = {K: mpmath.exp(-2 * abs(K)) for K in couplings}
            total, exponent, minbits, steps = _transfer_sum(
                n, within, between, bits, {K: (w.man, -w.exp) for K, w in weights.items()})
            deficit = floor + steps.bit_length() - minbits
            if deficit <= 0:
                break
            bits += deficit
        else:
            raise PrecisionError(
                f"brute force: certifying the sum needs {bits - need} bits beyond the "
                f"working precision, over MAX_SPREAD_BITS = {MAX_SPREAD_BITS}")
        logZ = sum(strength) + mpmath.log(mpmath.ldexp(mpf(total), exponent))
        return OracleResult(logZ=logZ, nconfig=1 << grid.spec.nsites, digits=digits)
