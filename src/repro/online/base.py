"""Online algorithm interface.

An online algorithm sees requests strictly one at a time (no lookahead)
and reacts to its own internal timers between requests.  Concrete
algorithms implement three hooks; the engine
(:func:`repro.sim.engine.run_online`) guarantees the calling contract:

* ``begin(instance)`` — reset state; the item starts on the origin server
  at ``t_0``.
* ``advance(t)`` — process internal events due strictly before ``t``.
* ``serve(i, t, s)`` — serve request ``r_i = (s, t)``.
* ``end(t_end)`` — truncate at the horizon and return the run result.

The instance object is passed to ``begin`` only for its static parameters
(``m``, cost model, origin, ``t_0``); implementations must not peek at
future requests — the test suite enforces this with a prefix-consistency
property (serving a prefix yields the same actions regardless of what
follows).
"""

from __future__ import annotations

import abc

from ..core.instance import ProblemInstance
from ..core.types import CostModel
from ..sim.recorder import OnlineRunResult, RunRecorder

__all__ = ["OnlineAlgorithm"]


class OnlineAlgorithm(abc.ABC):
    """Base class for online caching policies.

    Subclasses set :attr:`name` and implement the event hooks.  The base
    class owns the :class:`~repro.sim.recorder.RunRecorder` and exposes it
    as ``self.rec`` after :meth:`begin`.
    """

    #: Human-readable policy name (used in benchmark tables).
    name: str = "abstract"

    def __init__(self) -> None:
        self.rec: RunRecorder = None  # type: ignore[assignment]
        self.model: CostModel = None  # type: ignore[assignment]
        self.num_servers: int = 0
        self.origin: int = 0
        self.t0: float = 0.0

    def begin(self, instance: ProblemInstance) -> None:
        """Reset state for a fresh run over ``instance``."""
        self.model = instance.cost
        self.num_servers = instance.num_servers
        self.origin = instance.origin
        self.t0 = float(instance.t[0])
        self.rec = RunRecorder(self.num_servers, self.model)
        self._setup()

    @abc.abstractmethod
    def _setup(self) -> None:
        """Initialise algorithm-specific state (copy on origin etc.)."""

    @abc.abstractmethod
    def advance(self, t: float) -> None:
        """Process internal events due strictly before ``t``."""

    @abc.abstractmethod
    def serve(self, i: int, t: float, server: int) -> None:
        """Serve request ``r_i = (server, t)``."""

    def end(self, t_end: float) -> OnlineRunResult:
        """Finish the run: drain timers up to ``t_end`` and truncate."""
        self.advance(t_end)
        return self.rec.finalize(t_end, algorithm=self.name)

    def state_summary(self) -> dict:
        """Canonical plain-data view of mutable state for state digests.

        The base implementation covers the recorder ledger (everything
        that reaches the schedule) plus :meth:`_extra_state`; algorithms
        with private timers or RNGs override ``_extra_state`` so the
        :mod:`repro.runtime` digest distinguishes any two states that
        could diverge later.  Snapshot/restore itself does not rely on
        this — it pickles the object wholesale — so an incomplete
        summary weakens divergence *detection*, never resume fidelity.
        """
        return {
            "algorithm": self.name,
            "recorder": self.rec.state_summary() if self.rec is not None else None,
            "extra": self._extra_state(),
        }

    def _extra_state(self) -> dict:
        """Algorithm-specific mutable state folded into the digest."""
        return {}

    def run(
        self, instance: ProblemInstance, kernel: str = "auto"
    ) -> OnlineRunResult:
        """Convenience: drive this algorithm with the standard engine.

        ``kernel`` selects the execution path (``"auto"`` / ``"event"``,
        see :func:`repro.sim.engine.run_online`); both produce
        bit-identical results.
        """
        from ..sim.engine import run_online

        return run_online(self, instance, kernel=kernel)
