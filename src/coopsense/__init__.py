"""Cooperative spectrum sensing toolkit.

Closed-form and Monte Carlo performance analysis of a K-radio cognitive
network that senses with energy detectors over Rayleigh fading, reports
one-bit decisions over a noisy channel, and fuses them with an n-out-of-K
vote. Includes ROC generation, rule-crossover detection, and adaptive
selection of the vote threshold for a target miss-detection probability.
"""

from .fusion import FusionConfig, fused_qf, fused_qm
from .local_sensing import SensingParams, local_pd, local_pf, local_pm, threshold_for_pf
from .mathx import db_to_linear, gaussian_q
from .montecarlo import SimGrid, SimScenario, run_grid
from .reporting import ReportChannel, channel_from_snr_db
from .roc import (
    InfeasibleTargetError,
    OptimalRule,
    RocSweep,
    crossover_table,
    optimal_n,
)

__version__ = "0.1.0"

__all__ = [
    "SensingParams",
    "ReportChannel",
    "FusionConfig",
    "SimScenario",
    "SimGrid",
    "RocSweep",
    "OptimalRule",
    "InfeasibleTargetError",
    "gaussian_q",
    "db_to_linear",
    "local_pf",
    "local_pd",
    "local_pm",
    "threshold_for_pf",
    "channel_from_snr_db",
    "fused_qf",
    "fused_qm",
    "run_grid",
    "crossover_table",
    "optimal_n",
]
