"""Streaming (incremental) DP tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamingSolver, solve_offline, validate_schedule
from repro.core.instance import ProblemInstance
from repro.core.types import InvalidInstanceError
from repro.paperdata import FIG6_EXPECTED, FIG6_REQUESTS

from ..conftest import instances
from .test_kernels import assert_bit_identical, tie_heavy_instances

_SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgainstBatch:
    def test_fig6_prefixes(self):
        ss = StreamingSolver(4)
        for i, (t, s) in enumerate(FIG6_REQUESTS, start=1):
            ss.append(t, s)
            assert ss.optimal_cost == pytest.approx(FIG6_EXPECTED["C"][i])

    @given(instances())
    @settings(**_SETTINGS)
    def test_matches_batch_at_every_prefix(self, inst):
        ss = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        batch = solve_offline(inst)
        for i in range(1, inst.n + 1):
            c = ss.append(float(inst.t[i]), int(inst.srv[i]))
            assert c == pytest.approx(float(batch.C[i]), rel=1e-9, abs=1e-9)
        assert np.allclose(ss.result().C, batch.C)

    @given(instances(max_n=15))
    @settings(**_SETTINGS)
    def test_snapshot_reconstructs(self, inst):
        ss = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        ss.extend(zip(inst.t[1:].tolist(), inst.srv[1:].tolist()))
        res = ss.result()
        sched = res.schedule()  # internal cost-identity assert
        validate_schedule(sched, ss.instance())


class TestAPI:
    def test_extend_returns_final_cost(self):
        ss = StreamingSolver(4)
        cost = ss.extend(FIG6_REQUESTS)
        assert cost == pytest.approx(8.9)

    def test_monotone_costs(self):
        ss = StreamingSolver(4)
        prev = 0.0
        for t, s in FIG6_REQUESTS:
            c = ss.append(t, s)
            assert c >= prev - 1e-12
            prev = c

    def test_instance_snapshot(self):
        ss = StreamingSolver(4)
        ss.extend(FIG6_REQUESTS)
        inst = ss.instance()
        assert inst.n == 7 and inst.num_servers == 4

    def test_out_of_order_append_rejected(self):
        ss = StreamingSolver(2)
        ss.append(1.0, 1)
        with pytest.raises(InvalidInstanceError, match="not after"):
            ss.append(0.5, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_append_rejected(self, bad):
        ss = StreamingSolver(2)
        ss.append(1.0, 1)
        with pytest.raises(InvalidInstanceError, match="finite"):
            ss.append(bad, 0)
        assert ss.n == 1  # the refused request left no trace
        assert ss.append(2.0, 0) == solve_offline(ss.instance()).optimal_cost

    def test_equal_time_append_rejected(self):
        ss = StreamingSolver(2)
        ss.append(1.0, 1)
        with pytest.raises(InvalidInstanceError):
            ss.append(1.0, 0)

    def test_bad_server_rejected(self):
        ss = StreamingSolver(2)
        with pytest.raises(InvalidInstanceError, match="outside"):
            ss.append(1.0, 5)

    def test_constructor_validation(self):
        with pytest.raises(InvalidInstanceError):
            StreamingSolver(0)
        with pytest.raises(InvalidInstanceError):
            StreamingSolver(2, origin=7)

    def test_repr(self):
        ss = StreamingSolver(4)
        ss.extend(FIG6_REQUESTS)
        assert "C(n)=8.9" in repr(ss)

    def test_empty_solver_state(self):
        ss = StreamingSolver(3)
        assert ss.n == 0 and ss.optimal_cost == 0.0


def _solver(inst):
    return StreamingSolver(
        inst.num_servers,
        cost=inst.cost,
        origin=inst.origin,
        start_time=float(inst.t[0]),
    )


class TestOneLoop:
    """``extend`` is the one frontier loop: any block split of a sequence,
    one ``append`` per request and one ``extend`` give the same bytes."""

    @given(st.one_of(instances(), tie_heavy_instances()), st.data())
    @settings(**_SETTINGS)
    def test_block_splits_appends_and_one_extend_agree(self, inst, data):
        requests = list(zip(inst.t[1:].tolist(), inst.srv[1:].tolist()))
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(requests)), max_size=6))
        )
        split, single, whole = _solver(inst), _solver(inst), _solver(inst)
        for lo, hi in zip([0, *cuts], [*cuts, len(requests)]):
            assert split.extend(requests[lo:hi]) == split.optimal_cost
        for i in range(1, inst.n + 1):  # numpy integer servers pass too
            single.append(inst.t[i], inst.srv[i])
        assert whole.extend(requests) == whole.optimal_cost
        ref = solve_offline(inst, kernel="reference")
        for solver in (split, single, whole):
            assert_bit_identical(solver.result(), ref)


class TestRefusedRequest:
    PREFIX = [(1.0, 1), (2.0, 0), (2.5, 2), (2.75, 1)]

    @pytest.mark.parametrize(
        "bad, match",
        [
            ((math.nan, 0), "finite"),
            ((math.inf, 0), "finite"),
            ((2.75, 3), "not after"),
            ((1.5, 3), "not after"),
            ((3.0, 4), "outside"),
            ((3.0, -1), "outside"),
            ((3.0, 2.9), "not an integer"),
            ((3.0, 2.0), "not an integer"),
            ((3.0, True), "not an integer"),
            ((3.0, "2"), "not an integer"),
        ],
        ids=["nan", "inf", "equal", "earlier", "m", "negative", "2.9",
             "float", "bool", "str"],
    )
    def test_refused_inside_a_block(self, bad, match):
        # The block's requests before the bad one stay, nothing after it
        # does, and the solver goes on from that prefix.
        ss = StreamingSolver(4)
        ss.extend(self.PREFIX[:2])
        with pytest.raises(InvalidInstanceError, match=match):
            ss.extend([*self.PREFIX[2:], bad, (9.0, 3)])
        prefix = StreamingSolver(4)
        prefix.extend(self.PREFIX)
        assert ss.n == 4
        assert ss.optimal_cost == prefix.optimal_cost
        ss.append(3.0, 3)
        times, servers = zip(*self.PREFIX, (3.0, 3))
        want = solve_offline(
            ProblemInstance.from_arrays(
                np.array(times), np.array(servers), num_servers=4
            )
        )
        assert_bit_identical(ss.result(), want)

    def test_append_refuses_non_integer_servers(self):
        # int(server) would file 2.9 under server 2 and True under 1.
        ss = StreamingSolver(4)
        for time, server in ((1.0, 2.9), (2.0, True), (3.0, np.bool_(True))):
            with pytest.raises(InvalidInstanceError, match="not an integer"):
                ss.append(time, server)
        assert ss.n == 0
        ss.append(1.0, np.int32(2))
        assert ss.srv == [0, 2] and type(ss.srv[1]) is int


class TestWorkingState:
    def test_bytes_kept_per_request(self):
        # Only results are kept per request (t, srv, C, D, served and the
        # two choices); the working state is O(m).  The bound sits
        # between the ~120 B this keeps on CPython 3.10-3.12 and the
        # ~200 B that keeping p, sigma, b and B per request as well costs.
        n, m = 20_000, 16
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(0.5, n)).tolist()
        servers = rng.integers(0, m, n).tolist()
        ss = StreamingSolver(m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for time, server in zip(times, servers):
                ss.append(time, server)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ss.n == n
        assert kept / n < 150, kept / n
