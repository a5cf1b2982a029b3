"""Multi-item service layer (exact per-item decomposition) and live serving."""

from .multi import (
    MultiItemInstance,
    MultiItemOfflineResult,
    MultiItemOnlineService,
    multi_item_workload,
    solve_offline_multi,
)
from .server import CacheServer, ServerConfig, route_item, run_server
from .proxy import ChaosProxy, run_proxy
from .cluster import ClusterConfig, Replica, ReplicaSet, run_cluster

__all__ = [
    "CacheServer",
    "ChaosProxy",
    "ClusterConfig",
    "Replica",
    "ReplicaSet",
    "MultiItemInstance",
    "ServerConfig",
    "route_item",
    "run_cluster",
    "run_proxy",
    "run_server",
    "MultiItemOfflineResult",
    "MultiItemOnlineService",
    "multi_item_workload",
    "solve_offline_multi",
]
