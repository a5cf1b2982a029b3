"""Array-native hot-path kernels.

The reference implementations elsewhere in the package favour clarity:
per-request Python loops that mirror the paper's pseudocode line by
line.  This subpackage holds the *fast paths* — drop-in replacements
for the interpreter-bound hot loops, each differentially tested
bit-identical to its reference twin:

* :mod:`repro.kernels.frontier` — the off-line DP sweep with per-server
  monotone pivot pointers and incrementally maintained running minima,
  amortised ``O(n + m + P)`` (``P`` = total pivot-pointer advances,
  typically ``≈ n``) instead of interpreter-level ``O(mn)``.  Selected
  via ``solve_offline(kernel="auto")`` (the default) for one instance.
* :mod:`repro.kernels.prescan` — the instance pre-scan (``p``, ``σ``,
  ``b``, ``B``, per-server lists) and the reference sweep's pivot
  matrix as whole-array numpy operations instead of
  per-request/per-server Python loops.
* :mod:`repro.kernels.batch` — the batched instance-major DP sweep:
  a whole multi-item service packed into concatenated ragged columns
  and solved with ONE kernel call (compiled C sweep when a system
  compiler exists, transliterated Python loop otherwise).  What
  ``kernel="auto"`` runs for many instances: ``solve_offline_multi``
  and the trace samplers call it once per service or sample.
* :mod:`repro.kernels.online` — the online twin of the batch DP: a
  whole SC/TTL(γ) run (decisions, epochs, copy-seconds, cost, digest)
  replayed over native scalar columns without per-event hook dispatch,
  plus batched entry points over the same :class:`BatchLayout` ragged
  columns so a multi-item service or a TTL γ-grid is one kernel call.
  What ``run_online(kernel="auto")`` runs for plain
  ``SpeculativeCaching``.

Determinism contract: a kernel never changes *what* is computed, only
*how fast*.  ``C``/``D`` vectors, ``served_by_cache``, backtracking
choices, reconstructed schedules, and online run results are all
byte-identical across kernels — ``benchmarks/bench_dp_kernels.py``
gates on this unconditionally, and ``tests/offline/test_kernels.py``
property-tests it on random instances (ties, degenerate fleets).
"""

from .batch import (
    BatchLayout,
    batch_sweep_backend,
    solve_offline_batch,
)
from .frontier import FrontierState, solve_offline_frontier
from .online import (
    ONLINE_KERNELS,
    OnlineKernelRun,
    decision_digest,
    run_online_batch,
    run_online_layout,
    run_online_vector,
    sweep_layout,
    vector_policy_config,
)
from .prescan import (
    build_pivot_matrix,
    per_server_lists,
    prescan_arrays,
    prev_same_server,
)

__all__ = [
    "BatchLayout",
    "batch_sweep_backend",
    "solve_offline_batch",
    "FrontierState",
    "solve_offline_frontier",
    "ONLINE_KERNELS",
    "OnlineKernelRun",
    "decision_digest",
    "run_online_batch",
    "run_online_layout",
    "run_online_vector",
    "sweep_layout",
    "vector_policy_config",
    "build_pivot_matrix",
    "per_server_lists",
    "prescan_arrays",
    "prev_same_server",
]
