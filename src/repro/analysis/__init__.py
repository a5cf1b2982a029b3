"""Analysis layer: competitive measurement, sweeps, table formatting."""

from .competitive import (
    RatioStats,
    adversarial_gap_sweep,
    alternating_adversary,
    cyclic_adversary,
    empirical_ratio,
    ratio_grid,
    ratio_statistics,
    ttl_gamma_sweep,
)
from .bootstrap import BootstrapCI, bootstrap_ci, bootstrap_mean_ratio
from .calibration import PRICE_POINTS, PricingPlan, calibrate, describe_window
from .epochs import EpochRow, epoch_report
from .experiments import list_experiments, run_experiment
from .sweeps import Sweep, sweep, timed
from .tables import format_markdown, format_series, format_table
from .theory import (
    RoundRobinEnvelope,
    never_delete_cost,
    round_robin_envelope,
    single_server_optimal,
)

__all__ = [
    "BootstrapCI",
    "EpochRow",
    "PRICE_POINTS",
    "PricingPlan",
    "RatioStats",
    "RoundRobinEnvelope",
    "Sweep",
    "adversarial_gap_sweep",
    "alternating_adversary",
    "cyclic_adversary",
    "empirical_ratio",
    "format_markdown",
    "format_series",
    "format_table",
    "bootstrap_ci",
    "bootstrap_mean_ratio",
    "calibrate",
    "describe_window",
    "epoch_report",
    "list_experiments",
    "never_delete_cost",
    "ratio_grid",
    "ratio_statistics",
    "ttl_gamma_sweep",
    "round_robin_envelope",
    "run_experiment",
    "single_server_optimal",
    "sweep",
    "timed",
]
