"""The Speculative Caching (SC) online algorithm — paper Section V.

SC keeps a copy *speculatively* alive for ``Δt = λ/μ`` past its last
useful instant (serving a local request or sourcing a transfer): if the
next request lands within the window, serving it from cache costs at most
one transfer; beyond the window the copy is not worth its rent.  The paper
proves SC 3-competitive (Theorem 3).

Implementation follows the paper's per-epoch state machine literally:

* counter array ``C[m]`` of expiry instants (here ``expiry``),
* live-copy count ``c`` and per-epoch transfer count ``r``,
* request handling per step 3 (local window hit vs. transfer from the
  previous request's server, with source refresh),
* expiration handling per step 4, including the never-drop-the-last-copy
  rules: a lone copy's expiry is extended by ``Δt``; when the last two
  copies expire together (source and target of one transfer), the target
  survives.

One deliberate alignment with the paper's own Observation 4: a request on
a server whose copy is alive is served locally even when the copy
outlived its original window through lone-copy extensions (Observation 4
case 2, second bullet) — the algorithm listing's window test alone would
charge a pointless self-transfer there.

Two knobs generalise SC for the ablation studies (they default to the
paper's algorithm):

* ``window_factor`` scales the speculative window (``TTL(γ·λ/μ)``;
  ``γ = 1`` is SC) — benchmark A1 shows why ``λ/μ`` is the right rent
  horizon;
* ``epoch_size`` ends an epoch after that many transfers, resetting all
  state except the requester's copy; ``None`` runs a single unbounded
  epoch.  Theorem 3's bound holds only when no reset fires before the
  last request — the paper's ``r = n`` reset.  Smaller epochs have no
  constant bound: round-robin over ``m`` servers with ``epoch_size <
  m`` pays a transfer on every request after the first, where OPT keeps
  every copy (16.6×OPT at ``m = 3``, ``epoch_size = 2``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..kernels.online import validate_sc_params
from ..sim.events import Event, EventQueue
from .base import OnlineAlgorithm

__all__ = ["SpeculativeCaching"]


class SpeculativeCaching(OnlineAlgorithm):
    """The paper's 3-competitive online algorithm (and its TTL family).

    Parameters
    ----------
    window_factor:
        Multiplier ``γ`` on the speculative window ``λ/μ``: a finite
        number ``> 0``.  The paper's SC is ``γ = 1``.
    epoch_size:
        Number of transfers per epoch, an integer ``>= 1`` (``None`` =
        one unbounded epoch).  The 3-competitive guarantee needs ``None``
        or at least ``n`` (see the module docstring).  Bad values of
        either raise ``ValueError``
        (:func:`~repro.kernels.online.validate_sc_params`).
    """

    name = "speculative-caching"

    def __init__(
        self, window_factor: float = 1.0, epoch_size: Optional[int] = None
    ):
        super().__init__()
        window_factor, epoch_size = validate_sc_params(window_factor, epoch_size)
        self.window_factor = window_factor
        self.epoch_size = epoch_size
        if window_factor != 1.0:
            self.name = f"ttl({window_factor:g}x)"

    # -- window sampling (overridden by the randomized variant) ---------------

    def _window(self) -> float:
        """Speculative window granted at a refresh instant."""
        return self.window_factor * self.model.speculative_window

    # -- state ------------------------------------------------------------------

    def _setup(self) -> None:
        m = self.num_servers
        self.expiry: List[float] = [-math.inf] * m
        self.queue = EventQueue()
        self.c = 1
        self.r = 0
        self.last_request_server = self.origin
        # (kind, time) of each server's latest refresh; kind "dst" marks the
        # target of a transfer, which survives the two-copies tie (step 4).
        self._cause: Dict[int, Tuple[str, float]] = {self.origin: ("initial", self.t0)}
        self.rec.copy_created(self.origin, self.t0, created_by="initial")
        self._arm(self.origin, self.t0)

    def _extra_state(self) -> dict:
        """Expose the SC state machine to the runtime state digest.

        Everything that steers future decisions is here: the counter
        array ``C`` (``expiry``), live/epoch counters, the last
        requester, refresh causes, and the full expiration queue
        (including its tie-break counter — pop order matters).
        """
        return {
            "expiry": list(self.expiry),
            "c": self.c,
            "r": self.r,
            "last_request_server": self.last_request_server,
            "cause": {str(s): list(v) for s, v in sorted(self._cause.items())},
            "queue": self.queue.state_summary(),
        }

    def _window_for(self, server: int, now: float) -> float:
        """Window granted to ``server``'s copy at a refresh instant.

        Hook for informed variants (``PredictiveCaching`` shrinks it to
        zero when its predictor says the next use is beyond the rent
        horizon).  The base algorithm grants the flat window.
        """
        return self._window()

    def _arm(self, server: int, now: float, flat: bool = False) -> None:
        """(Re)schedule the expiration of ``server``'s copy.

        ``flat=True`` bypasses :meth:`_window_for` and grants the full
        base window — used for lone-copy extensions, where a zero-width
        informed window would spin the event loop without progress.
        """
        window = self._window() if flat else self._window_for(server, now)
        self.expiry[server] = now + window
        self.queue.push(self.expiry[server], kind="expire", server=server)

    def _valid(self, ev: Event) -> bool:
        return ev.kind == "expire" and self.expiry[ev.server] == ev.time

    # -- expiration machinery (step 4) --------------------------------------------

    def _copy_floor(self) -> int:
        """Minimum live-copy count expirations may not cross.

        SC's never-drop-the-last-copy rule is the ``1`` case; the
        fault-tolerant SC-R variant raises it to its replica target
        ``k`` (capped by the live-server count).
        """
        return 1

    def advance(self, t: float) -> None:
        """Process expiration events due strictly before ``t``.

        Expirations never take the live-copy count below
        :meth:`_copy_floor`: when a simultaneous group would, enough of
        its members survive with extended leases (paper step 4 — the
        lone-copy extension and the source/target tie are the two
        floor-1 shapes).
        """
        while True:
            group = self.queue.pop_group(t, self._valid)
            if group is None:
                return
            e, events = group
            # Re-arming a copy to the same due instant (possible with
            # zero-width informed windows) leaves duplicate queue entries
            # that all pass the staleness check — deduplicate by server.
            servers = list(dict.fromkeys(ev.server for ev in events))
            deletable = self.c - self._copy_floor()
            if deletable >= len(servers):
                # The floor holds even if every expiring copy goes.
                for s in servers:
                    self._delete(s, e)
            else:
                keep = self._extension_survivors(
                    servers, len(servers) - max(deletable, 0)
                )
                for s in servers:
                    if s not in keep:
                        self._delete(s, e)
                self.rec.counters["extensions"] += 1
                for s in keep:
                    self._arm(s, e, flat=True)

    def _extension_survivors(self, servers: List[int], count: int) -> List[int]:
        """Pick ``count`` survivors among simultaneously-expiring copies.

        Survivors are chosen by repeated application of the paper's tie
        rule (transfer targets outrank sources), so the ``count = 1``
        case is exactly SC's step 4.
        """
        if count >= len(servers):
            return list(servers)
        remaining = list(servers)
        keep: List[int] = []
        for _ in range(count):
            s = self._tie_survivor(remaining)
            keep.append(s)
            remaining.remove(s)
        return keep

    def _tie_survivor(self, servers: List[int]) -> int:
        """Pick the survivor among simultaneously-expiring last copies."""
        for s in servers:
            if self._cause.get(s, ("", 0.0))[0] == "dst":
                return s
        # Defensive fallback (cannot arise from the SC state machine):
        # keep the most recently created copy.
        return max(servers, key=lambda s: self._cause.get(s, ("", -math.inf))[1])

    def _delete(self, server: int, t: float) -> None:
        self.expiry[server] = -math.inf
        self.c -= 1
        self.rec.counters["expirations"] += 1
        self.rec.copy_deleted(server, t, ended_by="expire")

    def _pick_source(self, t: float, server: int) -> int:
        """Transfer source for a miss on ``server`` at ``t``.

        Deterministic SC always finds the previous request's server alive
        (the never-drop-the-last-copy rules guarantee it — Observation 4);
        window-randomised variants can see it expire early, in which case
        the freshest surviving copy substitutes (counted so the test
        suite can assert pure SC never takes the fallback).
        """
        src = self.last_request_server
        if self.expiry[src] >= t and src != server:
            return src
        self.rec.counters["source_fallbacks"] = (
            self.rec.counters.get("source_fallbacks", 0) + 1
        )
        alive = [
            s
            for s in range(self.num_servers)
            if s != server and self.expiry[s] >= t
        ]
        if not alive:  # pragma: no cover - the extension rule forbids this
            raise RuntimeError(
                f"no live copy anywhere at t={t}; the never-drop-the-last-"
                f"copy rule is broken"
            )
        return max(alive, key=lambda s: self.expiry[s])

    # -- request handling (step 3) ---------------------------------------------------

    def serve(self, i: int, t: float, server: int) -> None:
        """Serve ``r_i = (server, t)`` per the SC rules."""
        if self.expiry[server] >= t:
            # Local hit (window case, or lone-copy extension survivor).
            self.rec.counters["local_hits"] += 1
            self.rec.copy_refreshed(server, t)
            self._cause[server] = ("local", t)
            self._arm(server, t)
        else:
            src = self._pick_source(t, server)
            self.rec.transfer(src, server, t)
            self.rec.copy_created(server, t, created_by="transfer")
            self.c += 1
            self._cause[server] = ("dst", t)
            self._arm(server, t)
            # Source refresh: "if s^k performs a transfer at t_i, update
            # C[k] <- t_i + Δt" (step 3, second bullet).
            self.rec.copy_refreshed(src, t)
            self._cause[src] = ("src", t)
            self._arm(src, t)
            self.r += 1
            if self.epoch_size is not None and self.r >= self.epoch_size:
                self._epoch_reset(server, t)
        self.last_request_server = server

    def _epoch_reset(self, keep: int, t: float) -> None:
        """End the epoch: only the requester's copy crosses the boundary."""
        for s in range(self.num_servers):
            if s != keep and self.expiry[s] > -math.inf:
                self.expiry[s] = -math.inf
                self.c -= 1
                self.rec.copy_deleted(s, t, ended_by="epoch-reset")
        self.r = 0
        self.rec.counters["epochs"] += 1
