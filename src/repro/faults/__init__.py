"""Fault injection: deterministic crash/loss scenarios for online runs.

* :class:`FaultPlan` / :class:`Outage` / :class:`FaultEvent` — the
  declarative, seeded fault scenario (who fails, when, how badly).
* :class:`FaultContext` — the per-run mutable side: liveness view,
  attempt draws, penalty ledger, fault log.
* :class:`FaultyRunResult` — an online run result extended with the
  blackout/penalty ledger.
* :mod:`repro.faults.chaos` — the seeded chaos-sweep harness (imported
  as a submodule to keep the dependency graph acyclic).

Entry point: :func:`repro.sim.engine.run_online_faulty`.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".injector": ("FaultContext", "FaultyRunResult"),
        ".plan": (
            "FaultEvent",
            "FaultPlan",
            "NetworkFaultPlan",
            "Outage",
            "Perturbation",
        ),
    },
)
