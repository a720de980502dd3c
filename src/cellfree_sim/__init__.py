"""Uplink Monte Carlo simulator for user-centric cell-free massive MIMO.

Compares centralized MMSE combining against two distributed alternatives
(local MMSE with optimal large-scale fading decoding, and local team MMSE
with a statistical second stage) under spatially correlated Rician fading
with perfectly tracked LoS phases.

The package exports the experiment entry points; the layers live in their
modules.
"""

from .errors import ConfigError, NumericalError
from .experiments import ExperimentConfig, parse_config, run_experiment

__version__ = "0.1.0"
