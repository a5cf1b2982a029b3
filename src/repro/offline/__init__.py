"""Off-line optimal algorithms (paper Section IV) and validation oracles.

* :func:`solve_offline` — the paper's ``O(mn)`` fast DP (Contribution 1).
* :func:`solve_offline_naive` — direct ``O(n²)`` sweep (correctness oracle
  and scaling baseline).
* :func:`solve_offline_bisect` — binary-search pivots, ``O(nm log n)``.
* :func:`solve_exact` — exponential subset-state oracle, also covering the
  heterogeneous-cost extension.
* :func:`reconstruct_schedule` — optimal schedule via backtracking.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".beam": ("BeamResult", "solve_beam"),
        ".bounds": ("BoundReport", "bound_report", "marginal_bounds", "running_bound"),
        ".dp": ("optimal_cost", "solve_offline"),
        ".exact": ("ExactResult", "solve_exact"),
        ".naive": ("solve_offline_bisect", "solve_offline_naive"),
        ".parametric": ("SensitivityPoint", "lambda_breakpoints", "lambda_sensitivity"),
        ".reconstruct": ("reconstruct_schedule",),
        ".result": ("FROM_C", "FROM_D", "OfflineResult"),
        ".streaming": ("StreamingSolver",),
    },
)
