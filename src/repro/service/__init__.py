"""Multi-item service layer (exact per-item decomposition, sharded parallel)."""

from .fabric import (
    SEGMENT_PREFIX,
    CircuitOpenError,
    RetryPolicy,
    ServicePool,
    active_segments,
)
from .sharding import SHARD_STRATEGIES, plan_shards
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
    "CircuitOpenError",
    "ClusterConfig",
    "Replica",
    "ReplicaSet",
    "MultiItemInstance",
    "RetryPolicy",
    "SEGMENT_PREFIX",
    "SHARD_STRATEGIES",
    "ServerConfig",
    "ServicePool",
    "active_segments",
    "plan_shards",
    "route_item",
    "run_cluster",
    "run_proxy",
    "run_server",
    "MultiItemOfflineResult",
    "MultiItemOnlineService",
    "multi_item_workload",
    "solve_offline_multi",
]
