"""Exact 2D Ising partition functions on finite rectangles and cylinders.

Four independent computation paths over arbitrary-precision arithmetic:
brute-force enumeration, the dimer/Pfaffian determinant, a column
transfer-matrix product for arbitrary couplings on the cylinder, and the
fully factorized spectral form for the homogeneous open rectangle, plus the
thermodynamic decompositions built on top (strip residual free energy,
Casimir force, corner free energy, q-product limits).
"""

from .brute_force import OracleResult, brute_force_logZ
from .cylinder import build_factors, logZ_cylinder
from .effspin import EffModel, build_eff_model, magnetization_eff, z_eff
from .lattice import (
    CouplingGrid,
    HomogeneousCouplings,
    LatticeSpec,
    critical_coupling_isotropic,
    dual,
    pm,
)
from .numerics import ConsistencyError, DomainError, PrecisionError
from .pfaffian import build_A, logZ_pfaffian
from .qseries import (
    FreeEnergyPieces,
    PeriodicCoeffMatrix,
    free_energy_pieces,
    pi_product,
    q_of_t,
    t_of_q,
)
from .spectral import (
    Mode,
    ResidualSystem,
    Spectrum,
    char_poly,
    find_modes,
    log_zsres,
    logZ_spectral,
    residual_system,
)
from .thermo import (
    CornerExtraction,
    ThermoReport,
    casimir_force_strip,
    extract_corner,
    report,
)

__version__ = "0.1.0"

__all__ = [
    # the four routes, and the steps that carry their own tests and timings
    "brute_force_logZ", "logZ_pfaffian", "build_A", "logZ_cylinder", "build_factors",
    "logZ_spectral", "find_modes", "char_poly", "residual_system", "log_zsres",
    # types
    "LatticeSpec", "CouplingGrid", "HomogeneousCouplings",
    "OracleResult", "Mode", "Spectrum", "ResidualSystem", "EffModel",
    "PeriodicCoeffMatrix", "FreeEnergyPieces", "ThermoReport", "CornerExtraction",
    # errors
    "DomainError", "PrecisionError", "ConsistencyError",
    # coupling maps
    "pm", "dual", "critical_coupling_isotropic",
    # the thermodynamic layer
    "report", "casimir_force_strip", "extract_corner", "build_eff_model", "z_eff",
    "magnetization_eff", "free_energy_pieces", "pi_product", "q_of_t", "t_of_q",
]
