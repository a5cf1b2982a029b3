"""Core value types and pre-scanned problem instances.

This subpackage hosts the paper's Section III problem notation: requests,
the homogeneous cost model, schedule atoms, and :class:`ProblemInstance`
with its O(mn) pre-scan (``p(i)``, ``σ_i``, ``b_i``, ``B_i``, cover-index
lookup).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".instance": ("PivotLookup", "ProblemInstance"),
        ".transforms": (
            "concat",
            "permute_servers",
            "scale_costs",
            "split_at",
            "time_scale",
            "time_shift",
            "with_cost",
        ),
        ".types": (
            "CacheInterval",
            "CostModel",
            "InvalidInstanceError",
            "InvalidScheduleError",
            "Request",
            "Transfer",
            "sort_requests",
        ),
    },
)
