"""Array-native hot-path kernels.

The reference implementations elsewhere in the package favour clarity:
per-request Python loops that mirror the paper's pseudocode line by
line.  This subpackage holds the *fast paths* — drop-in replacements
for the interpreter-bound hot loops, each differentially tested
bit-identical to its reference twin:

* :mod:`repro.kernels.prescan` — the one check of packed request
  columns (fleets up to ``MAX_SERVERS``), the pre-scan of one instance
  (``prescan_columns``: ``p``, ``σ``, ``b``, ``B``, run on an
  instance's first read of them), per-server lists and the reference
  sweep's pivot matrix, as whole-array numpy operations instead of
  per-request/per-server Python loops.
* :mod:`repro.kernels.batch` — the off-line DP sweep, the one
  production path for whole sequences: per-server monotone pivot
  windows and incrementally maintained running minima, amortised
  ``O(n + m + P)`` (``P`` = total pivot-pointer advances, typically
  ``≈ n``) instead of interpreter-level ``O(mn)``, over items packed
  into concatenated ragged columns and solved with ONE kernel call
  (compiled C sweep when a system compiler exists; otherwise one
  :meth:`~repro.offline.streaming.StreamingSolver.extend` per item, the
  DP's one Python frontier loop and the C sweep's spec).  What
  ``kernel="auto"`` runs: ``solve_offline`` on a one-item layout,
  ``solve_offline_multi`` and the trace samplers once per service or
  sample.
* :mod:`repro.kernels.online` — the online twin of the batch DP: an
  SC/TTL(γ) run (decisions, epochs, copy-seconds, cost, digest) as a
  resumable per-item state (``SCState``), a block step
  (``step_block``: compiled C from the same library as the DP sweep,
  or its Python spec) and an end-of-sequence ``finish``, without
  per-event hook dispatch; batched entry points run "new state, one
  block, finish" per item over the same :class:`BatchLayout` ragged
  columns, so a multi-item service or an instance block is one call.
  What ``run_online(kernel="auto")`` runs for plain ``SpeculativeCaching``.

Backends: the batched DP sweep, the SC block step, the CSV block
scanner, the trace pack, and the profiler's item-major pass and LPNF
are compiled together into one cached C library, with
their Python or numpy paths as the fallback.
:func:`batch_sweep_backend` names the backend they all run on, and the
``REPRO_BATCH_SWEEP`` environment variable (unset, empty, ``auto``,
``c`` or ``python``) is the one switch that pins it; no function takes
a backend argument.

Determinism contract: a kernel never changes *what* is computed, only
*how fast*.  ``C``/``D`` vectors, ``served_by_cache``, backtracking
choices, reconstructed schedules, and online run results are all
byte-identical across kernels — ``benchmarks/bench_dp_kernels.py``
gates on this unconditionally, and ``tests/offline/test_kernels.py``
property-tests it on random instances (ties, degenerate fleets).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".batch": ("BatchLayout", "batch_sweep_backend", "solve_offline_batch"),
        ".online": (
            "ONLINE_KERNELS",
            "OnlineKernelRun",
            "decision_digest",
            "run_online_batch",
            "run_online_layout",
            "run_online_vector",
            "vector_policy_config",
        ),
        ".prescan": (
            "MAX_SERVERS",
            "build_pivot_matrix",
            "per_server_lists",
            "prescan_columns",
        ),
    },
)
