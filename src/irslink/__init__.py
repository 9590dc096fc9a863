"""Outage probability of IRS-assisted SISO links under correlated Rayleigh fading.

Closed-form Gamma moment matching for arbitrary, equal and uniformly random
phase shifts, validated against an independent Monte-Carlo channel simulator.
"""

__version__ = "0.1.0"

from .closedform import (
    GammaParams,
    SystemParameters,
    gain_moments,
    gamma_fit,
    gamma_fit_equal_phase,
    gamma_fit_uniform_phase,
    outage_probability,
    outage_scale_sensitivity,
    regularized_upper_gamma,
    snr_threshold,
    uniform_phase_trace_moments,
)
from .correlation import (
    ArrayGeometry,
    CorrelationMatrix,
    element_position,
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
    McEstimate,
    SampleMoments,
    cophased_phases,
    effective_gain,
    estimate_outage,
    gain_samples,
    outage_counts,
    sample_channels,
    sample_gain_moments,
)
from .phaseshift import (
    Equal,
    Fixed,
    OptimalCsi,
    PhaseShiftDesign,
    UniformRandom,
    cascade_matrix,
    cascade_traces,
    equal_phase_trace_bound,
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

__all__ = [name for name in dir() if not name.startswith("_")]
