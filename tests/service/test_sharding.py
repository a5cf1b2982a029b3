"""Sharded parallel service-layer tests: plans and bit-identity."""

import numpy as np
import pytest

from repro import (
    MultiItemOnlineService,
    SpeculativeCaching,
    multi_item_workload,
    solve_offline_multi,
)
from repro.service import SHARD_STRATEGIES, plan_shards

from ..conftest import make_instance


def _sized_items(sizes):
    """Items whose only interesting property is their request count."""
    return {
        name: make_instance([float(i) for i in range(1, n + 1)], [0] * n, m=1)
        for name, n in sizes.items()
    }


def _service(num_items=6, n_total=180, m=5, rng=11):
    return multi_item_workload(num_items, n_total, m, rng=rng)


class TestPlanShards:
    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_partition(self, strategy, shards):
        svc = _service()
        plan = plan_shards(svc.items, shards, strategy=strategy)
        flat = [name for shard in plan for name in shard]
        assert sorted(flat) == sorted(svc.items)  # exact partition
        assert all(shard for shard in plan)  # no empty shards
        assert len(plan) <= min(shards, svc.num_items)

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_deterministic(self, strategy):
        svc = _service()
        a = plan_shards(svc.items, 3, strategy=strategy)
        b = plan_shards(svc.items, 3, strategy=strategy)
        assert a == b

    def test_size_strategy_balances(self):
        # Zipf-skewed volumes: LPT keeps the heaviest bin under the serial
        # total, and far under it when the head item doesn't dominate.
        svc = _service(num_items=8, n_total=400, rng=3)
        plan = plan_shards(svc.items, 4, strategy="size")
        loads = [sum(svc.items[k].n for k in shard) for shard in plan]
        assert max(loads) < svc.total_requests
        assert max(loads) >= svc.total_requests / 4  # pigeonhole sanity

    def test_hash_strategy_is_content_stable(self):
        # An item's placement depends only on its own name, never on which
        # other items share the service: dropping one item leaves every
        # other shard exactly as it was.
        svc = _service(num_items=6)
        full = plan_shards(svc.items, 3, strategy="hash")
        sub = {k: v for k, v in svc.items.items() if k != "item-5"}
        expected = [
            [n for n in shard if n != "item-5"] for shard in full
        ]
        assert plan_shards(sub, 3, strategy="hash") == [
            s for s in expected if s
        ]

    def test_size_strategy_golden_plan(self):
        # Golden pin for the heap-based LPT: (load, bin-index) heap pops
        # must reproduce the former linear-scan `loads.index(min(loads))`
        # placements exactly — lightest bin first, lowest index on load
        # ties.  Hand-traced: b,d (the 9s) seed bins 0,1; a,f stack on
        # bin 2; c takes the 9-vs-9 tie to bin 0; e lands on bin 1.
        items = _sized_items({"a": 5, "b": 9, "c": 3, "d": 9, "e": 2, "f": 5})
        assert plan_shards(items, 3, strategy="size") == [
            ["b", "c"],
            ["d", "e"],
            ["a", "f"],
        ]

    def test_size_strategy_golden_plan_all_ties(self):
        # Equal sizes: every placement is a load tie, so the plan is
        # decided purely by the bin-index tie-break.
        items = _sized_items({k: 4 for k in "abcde"})
        assert plan_shards(items, 2, strategy="size") == [
            ["a", "c", "e"],
            ["b", "d"],
        ]

    def test_invalid_arguments(self):
        svc = _service()
        with pytest.raises(ValueError, match="shards"):
            plan_shards(svc.items, 0)
        with pytest.raises(ValueError, match="strategy"):
            plan_shards(svc.items, 2, strategy="round-robin")


class TestParallelBitIdentity:
    """Acceptance: parallel == serial for costs, breakdowns and counters."""

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_offline_solve(self, processes):
        svc = _service()
        serial = solve_offline_multi(svc)
        par = solve_offline_multi(svc, processes=processes)
        assert list(par.per_item) == list(serial.per_item)  # dict order
        assert par.total_cost == serial.total_cost  # exact, not approx
        assert par.cost_breakdown() == serial.cost_breakdown()
        for name in serial.per_item:
            assert np.array_equal(par.per_item[name].C, serial.per_item[name].C)
            assert np.array_equal(
                np.nan_to_num(par.per_item[name].D, posinf=-1.0),
                np.nan_to_num(serial.per_item[name].D, posinf=-1.0),
            )
            assert par.per_item[name].instance is svc.items[name]

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_online_service(self, processes):
        svc = _service(rng=12)
        serial = MultiItemOnlineService(SpeculativeCaching).run(svc)
        par = MultiItemOnlineService(SpeculativeCaching).run(
            svc, processes=processes
        )
        assert list(par.runs) == list(serial.runs)
        assert par.total_cost == serial.total_cost
        assert par.counters() == serial.counters()
        for name in serial.runs:
            assert par.runs[name].cost == serial.runs[name].cost
            assert par.runs[name].counters == serial.runs[name].counters

    @pytest.mark.parametrize("strategy", SHARD_STRATEGIES)
    def test_shard_knobs_never_change_results(self, strategy):
        svc = _service(num_items=7, n_total=140)
        serial = solve_offline_multi(svc)
        par = solve_offline_multi(
            svc, processes=2, shards=5, shard_strategy=strategy
        )
        assert par.total_cost == serial.total_cost
        assert par.cost_breakdown() == serial.cost_breakdown()

    def test_lambda_factory_fails_fast_for_pools(self):
        svc = _service()
        with pytest.raises(ValueError, match="module-level"):
            MultiItemOnlineService(lambda: SpeculativeCaching()).run(
                svc, processes=2
            )

    def test_lambda_factory_fine_serially(self):
        svc = _service()
        online = MultiItemOnlineService(lambda: SpeculativeCaching()).run(svc)
        assert online.total_cost > 0
