"""Exact mapping of det(1 + Y) onto a constrained long-range spin model.

The expansion of det(1 + Y) is a sum of positive terms, one per balanced
occupation state of M two-valued spins s_mu in {0, 1} (equal numbers set on
the odd and even mode sublattices).  The weights come from pair couplings

    K_{mu nu} = -sigma_mu sigma_nu log[ v_mu v_nu / (c_mu - c_nu)^2 ],

ferromagnetic within a sublattice and antiferromagnetic across, and from a
field term L * sum gamma_hat_mu s_mu: the strip length acts as a magnetic
field with moments gamma_hat > 0.  The balanced constraint is enforced
combinatorially, never through a penalty term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .numerics import ConsistencyError, DomainError, working_dps

MAX_M = 16


@dataclass
class EffModel:
    M: int
    K: list            # K[mu][nu], symmetric, zero diagonal
    gamma_hat: list
    sigma: list
    L: mpf
    digits: int


def build_eff_model(rs):
    """Pair couplings and moments from a residual Cauchy system.

    v_mu v_nu must be positive for every pair so the coupling log exists;
    a sign here means the underlying spectrum is corrupt.  Couplings are
    ferromagnetic within a sublattice and antiferromagnetic across, except
    that deep in the ordered phase the nearly degenerate soft pair can push
    v_mu v_nu beyond (c_mu - c_nu)^2 and flip its cross coupling; the
    partition sum stays exact either way.
    """
    M = rs.M
    with working_dps(rs.digits):
        K = [[mpf(0)] * M for _ in range(M)]
        for mu in range(M):
            for nu in range(mu + 1, M):
                ratio = rs.v[mu] * rs.v[nu] / (rs.c[mu] - rs.c[nu]) ** 2
                if ratio <= 0:
                    raise ConsistencyError(
                        "v_mu v_nu must be positive for every pair"
                    )
                val = -rs.sigma[mu] * rs.sigma[nu] * mpmath.log(ratio)
                K[mu][nu] = val
                K[nu][mu] = val
        return EffModel(M=M, K=K, gamma_hat=list(rs.gamma_hat),
                        sigma=list(rs.sigma), L=rs.L, digits=rs.digits)


def _balanced_states(model):
    """Yield (occupied index tuple) over all balanced configurations."""
    odd = [mu for mu in range(model.M) if model.sigma[mu] > 0]
    even = [mu for mu in range(model.M) if model.sigma[mu] < 0]
    for k in range(len(odd) + 1):
        for so in itertools.combinations(odd, k):
            for se in itertools.combinations(even, k):
                yield so + se


def _state_energy(model, occ):
    E = mpf(0)
    for i, mu in enumerate(occ):
        E += model.L * model.gamma_hat[mu]
        for nu in occ[i + 1:]:
            E -= model.K[mu][nu]
    return E


def z_eff(model):
    """Exact partition sum over balanced configurations (log-sum-exp)."""
    if model.M > MAX_M:
        raise DomainError(f"effective-model enumeration is limited to M <= {MAX_M}")
    with working_dps(model.digits):
        total = mpf(0)
        for occ in _balanced_states(model):
            total += mpmath.exp(-_state_energy(model, occ))
        return total


def magnetization_eff(model):
    """Field-conjugate magnetization m = <sum gamma_hat s>/M of the model."""
    if model.M > MAX_M:
        raise DomainError(f"effective-model enumeration is limited to M <= {MAX_M}")
    with working_dps(model.digits):
        total = mpf(0)
        weighted = mpf(0)
        for occ in _balanced_states(model):
            w = mpmath.exp(-_state_energy(model, occ))
            g = sum(model.gamma_hat[mu] for mu in occ)
            total += w
            weighted += w * g
        return weighted / total / model.M
