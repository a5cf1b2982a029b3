"""Multi-item service layer (exact per-item decomposition) and live serving."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".multi": (
            "MultiItemInstance",
            "MultiItemOfflineResult",
            "MultiItemOnlineService",
            "multi_item_workload",
            "solve_offline_multi",
        ),
        ".server": ("CacheServer", "ServerConfig", "route_item", "run_server"),
        ".proxy": ("ChaosProxy", "run_proxy"),
        ".cluster": ("ClusterConfig", "Replica", "ReplicaSet", "run_cluster"),
    },
)
