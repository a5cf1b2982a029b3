"""repro — cost-driven data caching for mobile cloud services.

A full reproduction of *"Data Caching in Next Generation Mobile Cloud
Services, Online vs. Off-line"* (Wang, He, Fan, Xu, Culberson, Horton —
ICPP 2017): the optimal ``O(mn)`` off-line dynamic program, the
3-competitive online Speculative Caching algorithm, validation oracles,
workload substrates, and the analysis/benchmark harness that regenerates
every table and figure of the paper.

Quickstart
----------
>>> from repro import CostModel, ProblemInstance, solve_offline
>>> inst = ProblemInstance(
...     [(0.5, 1), (0.8, 2), (1.1, 3), (1.4, 0)],
...     num_servers=4,
...     cost=CostModel(mu=1.0, lam=1.0),
... )
>>> solve_offline(inst).optimal_cost
4.4
"""

from ._lazy import exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".core": (
            "CacheInterval",
            "CostModel",
            "InvalidInstanceError",
            "InvalidScheduleError",
            "ProblemInstance",
            "Request",
            "Transfer",
        ),
        ".offline": (
            "OfflineResult",
            "StreamingSolver",
            "optimal_cost",
            "reconstruct_schedule",
            "solve_exact",
            "solve_offline",
            "solve_offline_bisect",
            "solve_offline_naive",
        ),
        ".emulator": ("EmulationReport", "LatencyModel", "emulate"),
        ".faults": ("FaultContext", "FaultPlan", "FaultyRunResult", "Outage"),
        ".kernels": ("solve_offline_batch",),
        ".online": (
            "AlwaysTransfer",
            "MarkovPredictor",
            "NeverDelete",
            "OracleNextRequest",
            "PredictiveCaching",
            "RandomizedTTL",
            "RecedingHorizonPlanner",
            "SpeculativeCaching",
            "SpeculativeCachingResilient",
            "double_transfer",
            "verify_theorem3",
        ),
        ".service": (
            "CacheServer",
            "MultiItemInstance",
            "MultiItemOnlineService",
            "ServerConfig",
            "multi_item_workload",
            "solve_offline_multi",
        ),
        ".workloads": (
            "ColumnarTrace",
            "CostEstimate",
            "WorkloadStats",
            "convert_csv",
            "estimate_offline_cost",
            "exact_offline_cost",
            "mine_instance_columnar",
            "profile_trace",
            "sample_columnar",
            "sample_trace",
        ),
        ".schedule": ("Schedule", "render_schedule", "validate_schedule"),
        ".runtime": (
            "RunBudget",
            "RunJournal",
            "RunSnapshot",
            "SupervisedRun",
            "Supervisor",
        ),
        ".sim": ("OnlineRunResult", "ReplayDriver", "run_online", "run_online_faulty"),
    },
)
__all__.append("__version__")
