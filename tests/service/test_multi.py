"""Multi-item service layer tests."""

import pytest

from repro import (
    CostModel,
    MultiItemInstance,
    MultiItemOnlineService,
    SpeculativeCaching,
    multi_item_workload,
    solve_offline,
    solve_offline_multi,
)
from repro.core.types import InvalidInstanceError
from repro.kernels.online import ONLINE_KERNELS
from repro.offline.dp import KERNELS
from repro.workloads import TraceRecord

from ..conftest import make_instance


def two_item_service():
    a = make_instance([1.0, 2.0], [1, 0], m=3)
    b = make_instance([0.5, 3.0], [2, 2], m=3)
    return MultiItemInstance({"a": a, "b": b})


class TestMultiItemInstance:
    def test_aggregates(self):
        svc = two_item_service()
        assert svc.num_items == 2
        assert svc.total_requests == 4
        assert svc.num_servers == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MultiItemInstance({})

    @pytest.mark.parametrize("num_servers", [None, 3])
    def test_no_records_rejected(self, num_servers):
        # As from_columnar refuses an empty trace; without num_servers
        # the fleet size was max() of nothing.
        with pytest.raises(InvalidInstanceError, match="need at least one item"):
            MultiItemInstance.from_records([], num_servers=num_servers)

    def test_fleet_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError, match="fleet"):
            MultiItemInstance(
                {"a": make_instance([1.0], [0], m=2), "b": make_instance([1.0], [0], m=3)}
            )

    def test_cost_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError, match="cost"):
            MultiItemInstance(
                {
                    "a": make_instance([1.0], [0], m=2, mu=1.0),
                    "b": make_instance([1.0], [0], m=2, mu=2.0),
                }
            )

    def test_from_records_splits_by_item(self):
        records = [
            TraceRecord(1.0, 0, item="x"),
            TraceRecord(2.0, 1, item="y"),
            TraceRecord(3.0, 1, item="x"),
        ]
        svc = MultiItemInstance.from_records(records, cost=CostModel())
        assert svc.num_items == 2
        assert svc.items["x"].n == 2

    def test_repr(self):
        assert "items=2" in repr(two_item_service())


class TestOfflineDecomposition:
    def test_total_is_sum_of_parts(self):
        svc = two_item_service()
        res = solve_offline_multi(svc)
        assert res.total_cost == pytest.approx(
            sum(solve_offline(inst).optimal_cost for inst in svc.items.values())
        )

    def test_breakdown_sorted_descending(self):
        svc = multi_item_workload(4, 120, 5, rng=0)
        res = solve_offline_multi(svc)
        costs = list(res.cost_breakdown().values())
        assert costs == sorted(costs, reverse=True)

    def test_lower_bound_below_cost(self):
        svc = multi_item_workload(3, 90, 4, rng=1)
        res = solve_offline_multi(svc)
        assert res.total_lower_bound <= res.total_cost + 1e-9

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_results_keep_item_order_and_instances(self, kernel):
        # Every kernel answers in the service's item order, on the
        # service's own instance objects (no copies).
        svc = multi_item_workload(6, 180, 5, rng=11)
        per_item = solve_offline_multi(svc, kernel=kernel).per_item
        assert list(per_item) == list(svc.items)
        for name, res in per_item.items():
            assert res.instance is svc.items[name]


class TestOnlineService:
    def test_runs_each_item(self):
        svc = two_item_service()
        online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(svc)
        assert set(online.runs) == {"a", "b"}

    def test_total_cost_and_counters(self):
        svc = multi_item_workload(3, 90, 4, rng=2)
        online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(svc)
        assert online.total_cost == pytest.approx(
            sum(r.cost for r in online.runs.values())
        )
        assert online.counters()["transfers"] == sum(
            r.counters["transfers"] for r in online.runs.values()
        )

    @pytest.mark.parametrize("kernel", ONLINE_KERNELS)
    def test_lambda_factory_fine_serially(self, kernel):
        # Any zero-argument callable works as the factory; a lambda runs
        # the same as the policy class itself, on either online path.
        svc = multi_item_workload(6, 180, 5, rng=12)
        online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(
            svc, kernel=kernel
        )
        by_class = MultiItemOnlineService(SpeculativeCaching).run(svc, kernel=kernel)
        assert list(online.runs) == list(svc.items)
        assert online.total_cost == by_class.total_cost
        assert online.counters() == by_class.counters()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="online kernel"):
            MultiItemOnlineService(SpeculativeCaching).run(
                two_item_service(), kernel="pool"
            )

    def test_total_before_run_rejected(self):
        svc = two_item_service()
        with pytest.raises(RuntimeError):
            MultiItemOnlineService(lambda: SpeculativeCaching()).total_cost

    def test_service_level_competitive_bound(self):
        # Per-item 3-competitiveness aggregates to the service level.
        svc = multi_item_workload(4, 160, 5, rng=3)
        off = solve_offline_multi(svc)
        online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(svc)
        assert online.total_cost <= 3.0 * off.total_cost + 1e-6


class TestWorkloadGenerator:
    def test_item_count_and_volume(self):
        svc = multi_item_workload(5, 200, 6, rng=4)
        assert svc.num_items == 5
        assert svc.total_requests == 200

    def test_total_requests_exact(self):
        # Regression: round(weights * n_total) with a max(1, .) clamp used
        # to overshoot the budget (num_items=7, n_total=100, rng=1 -> 101).
        # Largest-remainder apportionment makes n_total a hard invariant.
        assert multi_item_workload(7, 100, 5, rng=1).total_requests == 100
        for num_items, n_total, skew in (
            (3, 10, 1.0),
            (7, 100, 1.0),
            (13, 137, 0.5),
            (16, 16, 2.0),
            (9, 1000, 1.5),
        ):
            svc = multi_item_workload(
                num_items, n_total, 4, item_zipf=skew, rng=2
            )
            assert svc.total_requests == n_total
            assert svc.num_items == num_items

    def test_every_item_gets_a_request(self):
        # The floor survives apportionment even under heavy skew, where
        # tail quotas round to zero.
        svc = multi_item_workload(12, 14, 3, item_zipf=3.0, rng=9)
        assert svc.total_requests == 14
        assert all(inst.n >= 1 for inst in svc.items.values())

    def test_zipf_volume_concentration(self):
        svc = multi_item_workload(6, 600, 4, item_zipf=1.5, rng=5)
        sizes = sorted((inst.n for inst in svc.items.values()), reverse=True)
        assert sizes[0] > sizes[-1] * 2

    def test_parameters_validated(self):
        with pytest.raises(InvalidInstanceError):
            multi_item_workload(0, 10, 3)
        with pytest.raises(InvalidInstanceError):
            multi_item_workload(5, 3, 3)

    def test_deterministic(self):
        a = multi_item_workload(3, 60, 4, rng=6)
        b = multi_item_workload(3, 60, 4, rng=6)
        assert solve_offline_multi(a).total_cost == pytest.approx(
            solve_offline_multi(b).total_cost
        )
