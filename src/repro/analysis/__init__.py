"""Analysis layer: competitive measurement, sweeps, table formatting."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".competitive": (
            "RatioStats",
            "adversarial_gap_sweep",
            "alternating_adversary",
            "cyclic_adversary",
            "empirical_ratio",
            "ratio_grid",
            "ratio_statistics",
            "ttl_gamma_sweep",
        ),
        ".bootstrap": ("BootstrapCI", "bootstrap_ci", "bootstrap_mean_ratio"),
        ".calibration": ("PRICE_POINTS", "PricingPlan", "calibrate", "describe_window"),
        ".experiments": ("list_experiments", "run_experiment"),
        ".sweeps": ("Sweep", "sweep", "timed"),
        ".tables": ("format_markdown", "format_series", "format_table"),
        ".theory": (
            "RoundRobinEnvelope",
            "never_delete_cost",
            "round_robin_envelope",
            "single_server_optimal",
        ),
    },
)
