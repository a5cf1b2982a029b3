"""Online engine driver tests."""

from types import SimpleNamespace
from typing import List, Tuple

import pytest

from repro import run_online
from repro.online.base import OnlineAlgorithm
from repro.sim.engine import ReplayDriver

from ..conftest import make_instance


class Probe(OnlineAlgorithm):
    """Records the exact hook call sequence."""

    name = "probe"

    def _setup(self):
        self.calls: List[Tuple] = []
        self.rec.copy_created(self.origin, self.t0, created_by="initial")

    def advance(self, t):
        self.calls.append(("advance", t))

    def serve(self, i, t, server):
        self.calls.append(("serve", i, t, server))


class TestEngine:
    def test_requests_delivered_in_order(self):
        inst = make_instance([1.0, 2.0, 3.0], [1, 0, 1], m=2)
        algo = Probe()
        run_online(algo, inst)
        serves = [c for c in algo.calls if c[0] == "serve"]
        assert serves == [
            ("serve", 1, 1.0, 1),
            ("serve", 2, 2.0, 0),
            ("serve", 3, 3.0, 1),
        ]

    def test_advance_precedes_each_serve(self):
        inst = make_instance([1.0, 2.0], [0, 1], m=2)
        algo = Probe()
        run_online(algo, inst)
        kinds = [c[0] for c in algo.calls]
        assert kinds[:4] == ["advance", "serve", "advance", "serve"]

    def test_final_advance_at_horizon(self):
        inst = make_instance([1.0], [0], m=1)
        algo = Probe()
        run_online(algo, inst)
        assert algo.calls[-1] == ("advance", 1.0)

    def test_result_algorithm_name(self):
        inst = make_instance([1.0], [0], m=1)
        assert run_online(Probe(), inst).algorithm == "probe"

    def test_algorithm_reusable_across_instances(self):
        algo = Probe()
        a = run_online(algo, make_instance([1.0], [0], m=1))
        b = run_online(algo, make_instance([2.0], [0], m=1))
        assert a.cost != b.cost  # fresh recorder per run


class TestTimestampValidation:
    """The engine rejects out-of-order streams before touching state.

    ``ProblemInstance`` construction already enforces increasing times,
    so these use duck-typed instances — the path a trace adapter or test
    probe would take.
    """

    def test_decreasing_timestamps_rejected(self):
        bogus = SimpleNamespace(t=[0.0, 1.0, 0.5, 2.0], n=3)
        algo = Probe()
        with pytest.raises(ValueError, match=r"non-decreasing.*t\[2\]=0\.5"):
            run_online(algo, bogus)
        # Rejected before begin(): no recorder was created.
        assert not hasattr(algo, "calls")

    def test_equal_timestamps_allowed(self):
        # Non-decreasing, not strictly increasing: a duck-typed trace
        # with simultaneous requests must replay fine (ProblemInstance
        # itself is stricter, but adapters need not be).
        base = make_instance([1.0, 2.0, 3.0], [0, 1, 0], m=2)
        dup = SimpleNamespace(
            t=[0.0, 1.0, 1.0, 2.0],
            srv=[0, 0, 1, 0],
            n=3,
            cost=base.cost,
            num_servers=2,
            origin=0,
        )
        algo = Probe()
        run_online(algo, dup)
        assert len([c for c in algo.calls if c[0] == "serve"]) == 3

    def test_wrong_shape_rejected(self):
        bogus = SimpleNamespace(t=[[0.0, 1.0]], n=1)
        with pytest.raises(ValueError, match="flat array"):
            run_online(Probe(), bogus)


class TestEqualInstantTieBreak:
    """Regression pin for the delivery order at equal instants.

    The contract (module docstring of ``repro.sim.engine``): at one
    instant, recoveries land first, then crashes, then requests — a
    crash coinciding with a request strikes *before* the request, and a
    server recovering at that instant is usable immediately.  Stable
    within kind: requests by index, fault events in plan order.
    """

    def _scenario(self):
        from repro import FaultPlan, Outage

        inst = make_instance([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 2], m=3)
        # At t=2.0: server 2 recovers (outage ends) AND server 0 crashes
        # (outage starts), coinciding with request r_2 on server 1.
        plan = FaultPlan(
            outages=(Outage(2, 1.2, 2.0), Outage(0, 2.0, 2.5))
        )
        return inst, plan

    def test_merged_stream_orders_recover_crash_request(self):
        from repro.sim.engine import merged_event_stream

        inst, plan = self._scenario()
        at_t2 = [ev for ev in merged_event_stream(inst, plan) if ev.time == 2.0]
        assert [ev.kind for ev in at_t2] == ["recover", "crash", "request"]

    def test_fault_log_reflects_delivery_order(self):
        from repro import SpeculativeCachingResilient
        from repro.sim.engine import run_online_faulty

        inst, plan = self._scenario()
        res = run_online_faulty(
            SpeculativeCachingResilient(replicas=1, max_retries=2), inst, plan
        )
        at_t2 = [e for e in res.fault_log if e[1] == 2.0 and e[0] in ("crash", "recover")]
        assert [e[0] for e in at_t2] == ["recover", "crash"]

    def test_crash_at_request_time_beats_the_request(self):
        from repro import FaultPlan, Outage, SpeculativeCachingResilient
        from repro.sim.engine import run_online_faulty

        # The origin (server 0, sole copy holder) dies exactly when r_2
        # on server 1 arrives: the request must NOT be served from the
        # dead server — SC-R re-seeds or drops, never reads a corpse.
        inst = make_instance([1.0, 2.0, 3.0], [0, 1, 0], m=2)
        plan = FaultPlan(outages=(Outage(0, 2.0, 2.2),))
        res = run_online_faulty(
            SpeculativeCachingResilient(replicas=1, max_retries=1), inst, plan
        )
        assert not any(
            e[0] == "xfer-ok" and e[1] == 2.0 and e[2] == 0
            for e in res.fault_log
        )

    def test_same_kind_keeps_source_order(self):
        from repro import FaultPlan, Outage
        from repro.sim.engine import merged_event_stream

        inst = make_instance([1.0, 2.0, 3.0], [0, 1, 0], m=4)
        plan = FaultPlan(
            outages=(Outage(3, 2.0, 2.4), Outage(1, 2.0, 2.3))
        )
        crashes = [
            ev.server
            for ev in merged_event_stream(inst, plan)
            if ev.kind == "crash" and ev.time == 2.0
        ]
        # FaultPlan.events emits per-server in sorted order; the stable
        # sort must preserve it.
        assert crashes == sorted(crashes)


class _SpySlices(list):
    """List that counts slice reads (the old quadratic access pattern)."""

    def __init__(self, items):
        super().__init__(items)
        self.slice_reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slice_reads += 1
        return super().__getitem__(key)


class TestRequestsDeliveredCounter:
    """Regression pin: budget polling must be O(1), not a prefix rescan.

    The historic property recounted ``stream[:pos]`` on every read, so a
    supervisor polling it per event paid O(n²) total.  The counter is
    now maintained incrementally; the rescan survives only as a fallback
    for drivers unpickled from pre-counter snapshots.
    """

    def _driver(self, n=200):
        times = [float(i) for i in range(1, n + 1)]
        servers = [i % 3 for i in range(n)]
        return ReplayDriver(Probe(), make_instance(times, servers, m=3))

    def test_no_prefix_rescans_while_polling(self):
        driver = self._driver()
        spy = _SpySlices(driver.stream)
        driver.stream = spy
        seen = []
        while not driver.done:
            driver.step()
            seen.append(driver.requests_delivered)  # poll per event
        assert seen == list(range(1, len(spy) + 1))
        assert spy.slice_reads == 0

    def test_counter_matches_recount_at_every_step(self):
        driver = self._driver(n=50)
        while not driver.done:
            driver.step()
            recount = sum(
                1
                for ev in driver.stream[: driver.pos]
                if ev.kind == "request"
            )
            assert driver.requests_delivered == recount

    def test_legacy_snapshot_fallback_recounts_once(self):
        # A driver unpickled from an old snapshot has no counter yet:
        # the first read recounts the prefix, later reads reuse it.
        driver = self._driver(n=30)
        for _ in range(10):
            driver.step()
        driver._requests_delivered = None  # simulate pre-counter pickle
        spy = _SpySlices(driver.stream)
        driver.stream = spy
        assert driver.requests_delivered == 10
        assert spy.slice_reads == 1
        assert driver.requests_delivered == 10
        assert spy.slice_reads == 1  # cached, no second rescan
        driver.step()
        assert driver.requests_delivered == 11
        assert spy.slice_reads == 1


class TestReplayFastPath:
    """The path ``kernel="auto"`` picks (the vector kernel for plain SC)
    must be indistinguishable from the stepwise driver on fault-free
    runs."""

    def test_fast_equals_stepwise_for_policies(self):
        from repro import (
            AlwaysTransfer,
            SpeculativeCaching,
            SpeculativeCachingResilient,
        )

        times = [0.5 * i + 0.25 for i in range(1, 120)]
        servers = [(i * 7) % 5 for i in range(1, 120)]
        inst = make_instance(times, servers, m=5)
        for factory in (
            SpeculativeCaching,
            AlwaysTransfer,
            SpeculativeCachingResilient,
        ):
            fast = run_online(factory(), inst)
            driver = ReplayDriver(factory(), inst)
            while not driver.done:
                driver.step()
            slow = driver.finish()
            assert fast.cost == slow.cost
            assert fast.counters == slow.counters
            assert fast.schedule.transfers == slow.schedule.transfers
            assert fast.schedule.intervals == slow.schedule.intervals

    def test_fast_path_rejects_bad_times_like_driver(self):
        from repro import SpeculativeCaching

        bogus = SimpleNamespace(t=[0.0, 1.0, 0.5], n=2)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_online(SpeculativeCaching(), bogus)
