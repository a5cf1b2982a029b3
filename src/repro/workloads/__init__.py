"""Workload substrates: synthetic arrivals, mobility trajectories, traces."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".diurnal": ("diurnal_instance", "diurnal_rate"),
        ".flashcrowd": ("flash_crowd_instance",),
        ".predictability": (
            "empirical_entropy",
            "lz_entropy_rate",
            "max_predictability",
        ),
        ".synthetic": (
            "arrival_gaps",
            "choose_servers",
            "mmpp_instance",
            "poisson_zipf_instance",
            "random_instance",
            "renewal_instance",
            "zipf_weights",
        ),
        ".columnar": (
            "ColumnarTrace",
            "convert_csv",
            "is_columnar",
            "mine_instance_columnar",
            "read_columnar",
            "write_columnar",
        ),
        ".profiler": ("ItemStats", "WorkloadStats", "profile_trace"),
        ".sampling": (
            "CostEstimate",
            "SampleStats",
            "estimate_offline_cost",
            "exact_offline_cost",
            "item_hash",
            "online_trace_costs",
            "sample_columnar",
            "sample_trace",
            "sampled_items",
            "solve_trace_costs",
        ),
        ".traces": ("TraceRecord", "mine_instance", "read_trace", "write_trace"),
        ".trajectory": ("MarkovMobility", "RandomWaypoint", "merge_streams"),
    },
)
