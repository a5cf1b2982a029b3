"""Online algorithms (paper Section V): SC, its analysis tooling, baselines.

* :class:`SpeculativeCaching` — the 3-competitive SC algorithm
  (Contribution 2), generalised to the ``TTL(γ·λ/μ)`` family.
* :func:`double_transfer` — the cost-preserving DT transformation
  (Definition 10).
* :mod:`~repro.online.reductions` — V-/H-reductions, Lemma 5/6 checkers
  and the Theorem-3 verification chain.
* :class:`SpeculativeCachingResilient` — SC-R, the fault-tolerant
  ``k``-replica variant for the :mod:`repro.faults` fault model.
* Baselines: :class:`AlwaysTransfer`, :class:`NeverDelete`,
  :class:`RandomizedTTL`.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".base": ("OnlineAlgorithm",),
        ".baselines": ("AlwaysTransfer", "NeverDelete", "RandomizedTTL"),
        ".double_transfer": ("DoubleTransferResult", "double_transfer"),
        ".horizon": ("RecedingHorizonPlanner",),
        ".predictive": (
            "MarkovPredictor",
            "NextUsePredictor",
            "OracleNextRequest",
            "PredictiveCaching",
        ),
        ".reductions": (
            "ReductionReport",
            "check_short_windows_cached",
            "check_single_cover_on_big_gaps",
            "gap_cover_matrix",
            "reduced_cost",
            "refined_sigma",
            "short_request_set",
            "verify_theorem3",
        ),
        ".resilient": ("SpeculativeCachingResilient",),
        ".speculative": ("SpeculativeCaching",),
        ".trusted": ("NoisyOracle", "TrustedPredictionCaching"),
        ".workfunction": ("WorkFunctionCaching",),
    },
)

# The function shares its name with its submodule, and importing
# ``repro.online.double_transfer`` (``reductions`` does) sets the package
# attribute to the module, so ``__getattr__`` would never see the name.
# Binding the function here, after that import, keeps it the export.
from .double_transfer import double_transfer  # noqa: E402
