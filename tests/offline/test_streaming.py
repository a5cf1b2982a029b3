"""Streaming (incremental) DP tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import StreamingSolver, solve_offline, validate_schedule
from repro.core.types import InvalidInstanceError
from repro.paperdata import FIG6_EXPECTED, FIG6_REQUESTS

from ..conftest import instances

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
