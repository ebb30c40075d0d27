"""Two-qubit entropic steering, entropy squeezing, and process sweeps."""

from .qstate import (
    BellIndex,
    InvalidStateError,
    XStateParams,
    bell_mixture,
    check_density,
    from_x_params,
    random_x_state,
    x_params_from_density,
)
from .measures import (
    NegativeProbabilityError,
    PathDisagreementError,
    SteeringReport,
    conditional_entropy,
    full_report,
    joint_distribution,
    neur_bound,
    steering_functional,
)
from .processes import (
    ChannelParameterError,
    ZeroProbabilityOutcomeError,
    accelerate,
    accelerate_oracle,
    accelerated_params,
    ad_survival,
    amplitude_damping_kraus,
    apply_local_channel,
    bell_project_swap,
    completeness_defect,
    dephasing_coherence,
    dephasing_kraus,
    swap_bell_mixtures,
)
from .sweep import (
    ConfigError,
    NonFiniteRecordError,
    SweepConfig,
    figure_presets,
    load_csv,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
