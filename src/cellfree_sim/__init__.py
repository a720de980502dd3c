"""Uplink Monte Carlo simulator for user-centric cell-free massive MIMO.

Compares centralized MMSE combining against two distributed alternatives
(local MMSE with optimal large-scale fading decoding, and local team MMSE
with a statistical second stage) under spatially correlated Rician fading
with perfectly tracked LoS phases.
"""

from .beamforming import (
    LsfdMoments,
    PiSet,
    Scheme,
    assemble_lmmse_lsfd,
    assemble_ltmmse,
    lsfd_weights,
    ltmmse_stage2,
    mmse_combiner,
)
from .channel import (
    ChannelDraw,
    ChannelStats,
    build_channel_stats,
    local_scattering_covariance,
    los_signature,
    sample_channels,
)
from .errors import ConfigError, NumericalError
from .estimation import (
    EstimateSet,
    PilotEstimator,
    error_statistics_check,
)
from .evaluation import MonteCarloBudgets, SeReport, cd_se, evaluate_schemes, uatf_se
from .experiments import (
    ExperimentConfig,
    ResultRow,
    parse_config,
    run_experiment,
)
from .scenario import (
    AreaConfig,
    Deployment,
    ServicePlan,
    apply_power_control,
    assign_pilots_and_clusters,
    deploy,
    path_gain_db,
    power_control,
    rician_factor,
    wrapped_distance,
)

__version__ = "0.1.0"
