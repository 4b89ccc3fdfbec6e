"""Hardy-space pseudospectral toolkit for the quadratic Szego equation."""

from .hardy import (
    ConservedTriple,
    HardyCoefficients,
    apply_D,
    conserved,
    inner_product,
    sobolev_norm,
)
from .operators import (
    AuDReport,
    SpectralReport,
    a_u,
    hankel,
    shifted_hankel,
    spectral_report,
    verify_au_minus_d,
    verify_lax,
    verify_syst_pl,
)
from .dynamics import (
    SimulationConfig,
    TrajectoryRecord,
    integrate,
    rank_conservation_check,
    rhs,
)
from .waves import (
    TravelingWaveSpec,
    build_profile,
    residual_profile,
    residual_traveling,
    standing_wave_arc,
    verify_standing,
)
from .v3 import (
    InstabilityReport,
    V3Derived,
    V3State,
    derived,
    embed,
    evolx_residual,
    instability_experiment,
    translated_ground_state,
    v3_integrate,
)
from .steady import SteadyV3Params, build_steady, is_steady
from .compose import compose_zN, verify_flow_commutation

__version__ = "0.1.0"

__all__ = [
    "ConservedTriple",
    "HardyCoefficients",
    "apply_D",
    "conserved",
    "inner_product",
    "sobolev_norm",
    "AuDReport",
    "SpectralReport",
    "a_u",
    "hankel",
    "shifted_hankel",
    "spectral_report",
    "verify_au_minus_d",
    "verify_lax",
    "verify_syst_pl",
    "SimulationConfig",
    "TrajectoryRecord",
    "integrate",
    "rank_conservation_check",
    "rhs",
    "TravelingWaveSpec",
    "build_profile",
    "residual_profile",
    "residual_traveling",
    "standing_wave_arc",
    "verify_standing",
    "InstabilityReport",
    "V3Derived",
    "V3State",
    "derived",
    "embed",
    "evolx_residual",
    "instability_experiment",
    "translated_ground_state",
    "v3_integrate",
    "SteadyV3Params",
    "build_steady",
    "is_steady",
    "compose_zN",
    "verify_flow_commutation",
]
