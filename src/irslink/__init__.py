"""Outage probability of IRS-assisted SISO links under correlated Rayleigh fading.

Closed-form Gamma moment matching for arbitrary, equal and uniformly random
phase shifts, validated against an independent Monte-Carlo channel simulator.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .closedform import GammaParams, gamma_fit, outage_probability
from .correlation import (
    ArrayGeometry,
    CorrelationMatrix,
    exponential_correlation,
    identity_correlation,
    matrix_sqrt,
    scale_covariance,
    sinc_correlation,
)
from .errors import (
    ContractViolationError,
    DegenerateScenarioError,
    DomainError,
    InternalConsistencyError,
    IrsLinkError,
    NotPositiveSemidefiniteError,
    ScenarioFormatError,
)
from .montecarlo import (
    ChannelRealization,
    channel_blocks,
    cophased_phases,
    effective_gain,
    gain_samples,
    outage_rates,
    sample_channels,
)
from .phaseshift import (
    Equal,
    Fixed,
    OptimalCsi,
    PhaseShiftDesign,
    UniformRandom,
    cascade_traces,
    phase_vector,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .curves import (
    OutageCurve,
    read_curve_csv,
    run_compare,
    run_curve,
    run_surface,
    write_compare_csv,
    write_curve_csv,
    write_surface_csv,
)

# The public names imported above, without the submodules the imports also bind.
__all__ = [n for n, v in sorted(globals().items()) if n[0] != "_" and not isinstance(v, _ModuleType)]
