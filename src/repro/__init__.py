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

from .core import (
    CacheInterval,
    CostModel,
    InvalidInstanceError,
    InvalidScheduleError,
    ProblemInstance,
    Request,
    Transfer,
)
from .offline import (
    OfflineResult,
    optimal_cost,
    reconstruct_schedule,
    solve_exact,
    solve_offline,
    solve_offline_bisect,
    solve_offline_naive,
)
from .emulator import EmulationReport, LatencyModel, emulate
from .faults import FaultContext, FaultPlan, FaultyRunResult, Outage
from .kernels import solve_offline_batch
from .offline import StreamingSolver
from .online import (
    AlwaysTransfer,
    MarkovPredictor,
    NeverDelete,
    OracleNextRequest,
    PredictiveCaching,
    RandomizedTTL,
    RecedingHorizonPlanner,
    SpeculativeCaching,
    SpeculativeCachingResilient,
    double_transfer,
    verify_theorem3,
)
from .service import (
    CacheServer,
    MultiItemInstance,
    MultiItemOnlineService,
    ServerConfig,
    multi_item_workload,
    solve_offline_multi,
)
from .workloads import (
    ColumnarTrace,
    CostEstimate,
    WorkloadStats,
    convert_csv,
    estimate_offline_cost,
    exact_offline_cost,
    mine_instance_columnar,
    profile_trace,
    sample_columnar,
    sample_trace,
)
from .schedule import (
    Schedule,
    render_schedule,
    validate_schedule,
)
from .runtime import RunBudget, RunJournal, RunSnapshot, SupervisedRun, Supervisor
from .sim import OnlineRunResult, ReplayDriver, run_online, run_online_faulty

__version__ = "1.0.0"

__all__ = [
    "AlwaysTransfer",
    "CacheInterval",
    "CacheServer",
    "CostModel",
    "InvalidInstanceError",
    "EmulationReport",
    "FaultContext",
    "FaultPlan",
    "FaultyRunResult",
    "InvalidScheduleError",
    "LatencyModel",
    "MarkovPredictor",
    "ColumnarTrace",
    "MultiItemInstance",
    "MultiItemOnlineService",
    "NeverDelete",
    "OfflineResult",
    "OnlineRunResult",
    "OracleNextRequest",
    "Outage",
    "PredictiveCaching",
    "ProblemInstance",
    "RandomizedTTL",
    "RecedingHorizonPlanner",
    "ReplayDriver",
    "Request",
    "RunBudget",
    "RunJournal",
    "RunSnapshot",
    "Schedule",
    "ServerConfig",
    "SupervisedRun",
    "Supervisor",
    "SpeculativeCaching",
    "SpeculativeCachingResilient",
    "StreamingSolver",
    "Transfer",
    "multi_item_workload",
    "solve_offline_multi",
    "convert_csv",
    "mine_instance_columnar",
    "CostEstimate",
    "WorkloadStats",
    "estimate_offline_cost",
    "exact_offline_cost",
    "profile_trace",
    "sample_columnar",
    "sample_trace",
    "double_transfer",
    "emulate",
    "optimal_cost",
    "reconstruct_schedule",
    "render_schedule",
    "run_online",
    "run_online_faulty",
    "solve_exact",
    "solve_offline",
    "solve_offline_batch",
    "solve_offline_bisect",
    "solve_offline_naive",
    "validate_schedule",
    "verify_theorem3",
    "__version__",
]
