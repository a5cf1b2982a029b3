"""Unit tests for ProblemInstance and its O(mn) pre-scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro import CostModel, InvalidInstanceError, ProblemInstance, Request
from repro.core.instance import PivotLookup, _check_boundary_consistency
from repro.kernels.prescan import build_pivot_matrix

from ..conftest import instances, make_instance


class TestConstruction:
    def test_boundary_request_prepended(self):
        inst = make_instance([1.0, 2.0], [1, 0], m=2)
        assert inst.n == 2
        assert inst.t[0] == 0.0 and inst.srv[0] == 0

    def test_accepts_request_objects(self):
        inst = ProblemInstance([Request(1.0, 1), Request(2.0, 0)], num_servers=2)
        assert inst.n == 2

    def test_accepts_tuples(self):
        inst = ProblemInstance([(1.0, 1)], num_servers=2)
        assert inst.srv[1] == 1

    def test_num_servers_inferred(self):
        inst = ProblemInstance([(1.0, 4)])
        assert inst.num_servers == 5

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(Exception, match="strictly increasing"):
            make_instance([1.0, 1.0], [0, 1], m=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, bad):
        # The array path enforces Request's finite-time rule: NaN passes
        # a "diff <= 0" test and a trailing +inf has a positive gap.
        for times in ([1.0, bad, 3.0], [1.0, bad]):
            servers = [0, 1, 0][: len(times)]
            with pytest.raises(InvalidInstanceError, match="finite"):
                ProblemInstance.from_arrays(times, servers, num_servers=2)
        with pytest.raises(InvalidInstanceError, match="finite"):
            ProblemInstance.from_arrays([1.0], [0], start_time=bad)

    def test_time_before_start_rejected(self):
        with pytest.raises(Exception, match="strictly increasing"):
            make_instance([-1.0, 2.0], [0, 1], m=2)

    def test_custom_start_time(self):
        inst = ProblemInstance([(1.0, 0)], num_servers=1, start_time=-5.0)
        assert inst.t[0] == -5.0

    def test_server_out_of_range_rejected(self):
        with pytest.raises(Exception, match="server ids"):
            make_instance([1.0], [3], m=2)

    def test_bad_origin_rejected(self):
        with pytest.raises(Exception, match="server ids|origin"):
            ProblemInstance([(1.0, 0)], num_servers=2, origin=5)

    def test_zero_servers_rejected(self):
        with pytest.raises(Exception):
            ProblemInstance([], num_servers=0)

    def test_empty_sequence_allowed(self):
        inst = ProblemInstance([], num_servers=3)
        assert inst.n == 0 and inst.horizon == 0.0

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(Exception, match="equal length"):
            ProblemInstance.from_arrays([1.0, 2.0], [0])

    def test_arrays_are_frozen(self):
        inst = make_instance([1.0], [0], m=1)
        with pytest.raises(ValueError):
            inst.t[0] = 99.0


class TestPreScan:
    def test_p_of_first_request_on_new_server(self):
        inst = make_instance([1.0, 2.0], [1, 1], m=2)
        assert inst.p[1] == -1  # dummy r_{-j}
        assert inst.p[2] == 1

    def test_p_links_to_origin_boundary(self):
        inst = make_instance([1.0], [0], m=1)
        assert inst.p[1] == 0  # r_0 is a request on the origin

    def test_sigma(self):
        inst = make_instance([1.0, 3.0], [0, 0], m=1)
        assert inst.sigma[1] == 1.0
        assert inst.sigma[2] == 2.0

    def test_sigma_infinite_for_fresh_server(self):
        inst = make_instance([1.0], [1], m=2)
        assert math.isinf(inst.sigma[1])

    def test_marginal_bounds_match_definition(self, fig6):
        mu, lam = fig6.cost.mu, fig6.cost.lam
        for i in range(1, fig6.n + 1):
            assert fig6.b[i] == pytest.approx(min(lam, mu * fig6.sigma[i]))

    def test_running_bound_is_cumsum(self, fig6):
        assert np.allclose(fig6.B, np.cumsum(fig6.b))

    def test_fig6_prescan_values(self, fig6):
        assert list(fig6.b.round(4)) == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 1.0]
        assert list(fig6.B.round(4)) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.6, 6.6]

    def test_boundary_consistency_helper(self, fig6):
        _check_boundary_consistency(fig6)

    def test_requests_property_roundtrip(self, fig6):
        reqs = fig6.requests
        rebuilt = ProblemInstance(
            reqs, num_servers=fig6.num_servers, cost=fig6.cost, origin=fig6.origin
        )
        assert rebuilt == fig6

    def test_delta_t(self, fig6):
        assert fig6.delta_t(1, 2) == pytest.approx(0.3)

    def test_slice_requests(self, fig6):
        part = fig6.slice_requests(2, 4)
        assert [r.server for r in part] == [2, 3, 0]

    def test_len(self, fig6):
        assert len(fig6) == 7

    def test_repr_mentions_shape(self, fig6):
        assert "n=7" in repr(fig6) and "m=4" in repr(fig6)


def matrix_cover_set(inst, i):
    """π(i) read from the reference sweep's pointer matrix (Fig. 5)."""
    q = int(inst.p[i])
    if q < 0:
        return []
    F = build_pivot_matrix(inst.srv, inst.num_servers)
    return [int(k) for k in F[q] if 0 <= k < i]


#: The two ways π(i) is enumerated: the pointer-matrix rows the
#: reference DP sweep reads, and the instance's bisect lookup.
COVER_SETS = {
    "matrix": matrix_cover_set,
    "bisect": lambda inst, i: inst.cover_set(i),
}


class TestPivotLookup:
    def brute_cover_set(self, inst, i):
        q = int(inst.p[i])
        if q < 0:
            return []
        return sorted(k for k in range(0, i) if inst.p[k] < q <= k)

    @pytest.mark.parametrize("mode", sorted(COVER_SETS))
    def test_cover_set_matches_bruteforce(self, mode, rng):
        cover_set = COVER_SETS[mode]
        for _ in range(30):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 25))
            t = np.cumsum(rng.uniform(0.05, 2.0, size=n))
            srv = rng.integers(0, m, size=n)
            inst = ProblemInstance.from_arrays(t, srv, num_servers=m)
            for i in range(1, n + 1):
                assert sorted(cover_set(inst, i)) == self.brute_cover_set(inst, i)

    def test_modes_agree(self, rng):
        t = np.cumsum(rng.uniform(0.05, 2.0, size=40))
        srv = rng.integers(0, 4, size=40)
        inst = ProblemInstance.from_arrays(t, srv, num_servers=4)
        for i in range(1, 41):
            assert sorted(matrix_cover_set(inst, i)) == sorted(inst.cover_set(i))

    def test_requests_on(self, fig6):
        assert list(fig6.requests_on(1)) == [1, 5, 6]
        assert list(fig6.requests_on(0)) == [0, 4]

    def test_first_at_or_after(self, fig6):
        lk = PivotLookup(fig6.srv, fig6.num_servers)
        assert lk.first_at_or_after(1, 2) == 5
        assert lk.first_at_or_after(3, 4) == -1

    def test_fig6_pivot_for_r7_includes_kappa4(self, fig6):
        # The paper's worked D(7): pivots include κ=4 (interval [0,1.4] on
        # s^1) and κ=5 (interval [0.5,2.6] on s^2).
        assert set(fig6.cover_set(7)) >= {4, 5}


class TestEqualityHash:
    def test_equal_instances(self):
        a = make_instance([1.0, 2.0], [0, 1], m=2)
        b = make_instance([1.0, 2.0], [0, 1], m=2)
        assert a == b and hash(a) == hash(b)

    def test_different_costs_not_equal(self):
        a = make_instance([1.0], [0], m=1, mu=1.0)
        b = make_instance([1.0], [0], m=1, mu=2.0)
        assert a != b

    def test_not_equal_to_other_types(self):
        assert make_instance([1.0], [0], m=1) != 42


class TestPropertyBased:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_prescan_invariants(self, inst):
        assert inst.b[0] == 0.0
        assert np.all(inst.b[1:] <= inst.cost.lam + 1e-12)
        assert np.all(np.diff(inst.B) >= -1e-12)
        # p is strictly decreasing chain per server and self-consistent.
        for i in range(1, inst.n + 1):
            q = int(inst.p[i])
            if q >= 0:
                assert inst.srv[q] == inst.srv[i]
                assert q < i

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_cover_set_bounded_by_m(self, inst):
        for i in range(1, inst.n + 1):
            ks = inst.cover_set(i)
            assert len(ks) <= inst.num_servers
            assert len(set(ks)) == len(ks)
