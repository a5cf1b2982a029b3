"""Differential suite for ``repro.kernels`` — bit-identity, not approx.

The kernels are throughput knobs, never semantics knobs: every test here
compares *bytes*, not ``pytest.approx``.  Three layers:

* frontier DP kernel and both batch sweep backends vs the reference
  sweep, including tie-heavy integer-gap instances and single-server
  degenerate cases;
* the vectorized pre-scan vs its loop reference twins;
* the streaming solver vs the batch solver on the same
  prefix.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostModel, ProblemInstance, solve_offline
from repro.kernels import (
    batch_sweep_backend,
    solve_offline_batch,
    solve_offline_frontier,
)
from repro.kernels.prescan import (
    build_pivot_matrix,
    build_pivot_matrix_reference,
    per_server_lists,
    prescan_arrays,
    prev_same_server,
    prev_same_server_reference,
)
from repro.offline.streaming import StreamingSolver

from ..conftest import instances, make_instance

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every batch sweep backend runnable on this box.  The Python sweep
#: always exists; the C sweep joins when a system compiler produced the
#: shared object.
BACKENDS = ("python", "c") if batch_sweep_backend() == "c" else ("python",)


@st.composite
def tie_heavy_instances(draw, max_m: int = 4, max_n: int = 24):
    """Integer gaps with ``mu = lam = 1``: many exactly-equal D candidates.

    Equal *values* are where argmin tie-breaking can silently diverge
    between kernels, so this strategy manufactures them on purpose.
    """
    m = draw(st.integers(min_value=1, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_n))
    gaps = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n)
    )
    servers = draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)
    )
    origin = draw(st.integers(min_value=0, max_value=m - 1))
    return ProblemInstance.from_arrays(
        np.cumsum(np.asarray(gaps, dtype=float)),
        np.asarray(servers, dtype=int),
        num_servers=m,
        cost=CostModel(mu=1.0, lam=1.0),
        origin=origin,
    )


def assert_bit_identical(a, b):
    """Every result field byte-identical; schedules exactly equal."""
    assert a.C.tobytes() == b.C.tobytes()
    assert a.D.tobytes() == b.D.tobytes()
    assert a.served_by_cache.tobytes() == b.served_by_cache.tobytes()
    assert a.choice_d_tag.tobytes() == b.choice_d_tag.tobytes()
    assert a.choice_d_k.tobytes() == b.choice_d_k.tobytes()
    sa, sb = a.schedule(), b.schedule()
    assert sa.transfers == sb.transfers
    assert sa.intervals == sb.intervals
    cost = a.instance.cost
    assert sa.total_cost(cost) == sb.total_cost(cost)


class TestFrontierVsReference:
    @given(instances())
    @settings(**_SETTINGS)
    def test_random_instances(self, inst):
        ref = solve_offline(inst, kernel="reference")
        assert_bit_identical(ref, solve_offline_frontier(inst))

    @given(tie_heavy_instances())
    @settings(**_SETTINGS)
    def test_tie_heavy_instances(self, inst):
        ref = solve_offline(inst, kernel="reference")
        assert_bit_identical(ref, solve_offline_frontier(inst))

    @given(instances(max_m=1, max_n=30))
    @settings(**_SETTINGS)
    def test_single_server_degenerate(self, inst):
        assert inst.num_servers == 1
        ref = solve_offline(inst, kernel="reference")
        assert_bit_identical(ref, solve_offline_frontier(inst))

    @given(instances(max_m=6, max_n=40))
    @settings(**_SETTINGS)
    def test_batch_backends_match_reference(self, inst):
        ref = solve_offline(inst, kernel="reference")
        for backend in BACKENDS:
            batch = solve_offline_batch({"x": inst}, kernel=backend)["x"]
            assert_bit_identical(ref, batch)

    def test_kernel_auto_routes_to_frontier(self):
        inst = make_instance([1.0, 2.0, 3.5], [0, 1, 0], m=2)
        auto = solve_offline(inst)  # kernel="auto"
        assert_bit_identical(auto, solve_offline_frontier(inst))

    def test_bad_kernel_rejected(self):
        inst = make_instance([1.0], [0], m=1)
        for bad in ("warp", "batch"):
            with pytest.raises(ValueError, match="kernel"):
                solve_offline(inst, kernel=bad)


@st.composite
def server_vectors(draw, max_m: int = 6, max_n: int = 40):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n1 = draw(st.integers(min_value=1, max_value=max_n))
    servers = draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1), min_size=n1, max_size=n1
        )
    )
    return np.asarray(servers, dtype=np.int64), m


class TestPrescanVsReferenceTwins:
    @given(server_vectors())
    @settings(**_SETTINGS)
    def test_prev_same_server(self, sv):
        servers, m = sv
        fast = prev_same_server(servers)
        ref = prev_same_server_reference(per_server_lists(servers, m), servers.shape[0])
        assert fast.tobytes() == ref.tobytes()

    @given(server_vectors())
    @settings(**_SETTINGS)
    def test_pivot_matrix(self, sv):
        servers, m = sv
        fast = build_pivot_matrix(servers, m)
        ref = build_pivot_matrix_reference(servers, m)
        assert fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()

    @given(instances())
    @settings(**_SETTINGS)
    def test_prescan_arrays_match_instance(self, inst):
        # The instance constructor consumes prescan_arrays; re-deriving
        # from the raw vectors must reproduce its arrays bit-for-bit.
        p, sigma, b, B = prescan_arrays(
            inst.t, inst.srv, inst.cost.mu, inst.cost.lam
        )
        assert p.tobytes() == inst.p.tobytes()
        assert sigma.tobytes() == inst.sigma.tobytes()
        assert b.tobytes() == inst.b.tobytes()
        assert B.tobytes() == inst.B.tobytes()


class TestStreamingVsBatch:
    @given(instances())
    @settings(**_SETTINGS)
    def test_streaming_prefix_equals_batch(self, inst):
        solver = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        for i in range(1, inst.n + 1):
            solver.append(float(inst.t[i]), int(inst.srv[i]))
        res = solver.result()
        batch = solve_offline(inst, kernel="reference")
        assert res.C.tobytes() == batch.C.tobytes()
        assert res.D.tobytes() == batch.D.tobytes()
        assert (
            res.served_by_cache.tobytes() == batch.served_by_cache.tobytes()
        )
        assert res.choice_d_tag.tobytes() == batch.choice_d_tag.tobytes()
        assert res.choice_d_k.tobytes() == batch.choice_d_k.tobytes()

    @given(tie_heavy_instances())
    @settings(**_SETTINGS)
    def test_streaming_frontier_on_ties(self, inst):
        solver = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        solver.extend(
            (float(inst.t[i]), int(inst.srv[i])) for i in range(1, inst.n + 1)
        )
        res = solver.result()
        batch = solve_offline_frontier(inst)
        assert res.C.tobytes() == batch.C.tobytes()
        assert res.choice_d_k.tobytes() == batch.choice_d_k.tobytes()
