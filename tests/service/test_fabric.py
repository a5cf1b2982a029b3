"""Zero-copy shared-memory service fabric tests.

Three property families:

* **identity** — pool solves/serves are bit-identical to serial runs
  (key order, every result array, solver tags, counters);
* **lifecycle** — segments are unlinked on close()/context exit/error
  paths, and ``/dev/shm`` carries no ``reprosvc`` segments afterwards;
* **robustness** — a worker killed mid-task breaks only the in-flight
  call: the pool respawns its executor, the retried call succeeds, and
  no segments leak.
"""

import glob
import os
import signal

import numpy as np
import pytest

from repro import (
    MultiItemOnlineService,
    ServicePool,
    SpeculativeCaching,
    multi_item_workload,
    solve_offline_multi,
)
from repro.core.types import InvalidInstanceError
from repro.offline.dp import KERNELS
from repro.service.fabric import (
    SEGMENT_PREFIX,
    ServiceArena,
    active_segments,
)


def small_service(items=6, per_item=40, m=5, seed=3):
    return multi_item_workload(items, items * per_item, m, rng=seed)


def shm_segments():
    """Names of this prefix's segments visible in /dev/shm (Linux)."""
    return sorted(
        os.path.basename(p) for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    )


def assert_offline_identical(a, b):
    assert list(a.per_item) == list(b.per_item)
    for k in a.per_item:
        ra, rb = a.per_item[k], b.per_item[k]
        assert np.array_equal(ra.C, rb.C)
        assert np.array_equal(ra.D, rb.D)
        assert np.array_equal(ra.served_by_cache, rb.served_by_cache)
        assert np.array_equal(ra.choice_d_tag, rb.choice_d_tag)
        assert np.array_equal(ra.choice_d_k, rb.choice_d_k)
        assert ra.solver == rb.solver
    assert a.total_cost == b.total_cost


class TestSolveIdentity:
    def test_pool_solve_bit_identical_to_serial(self):
        svc = small_service()
        serial = solve_offline_multi(svc)
        with ServicePool(2) as pool:
            assert_offline_identical(serial, pool.solve(svc))

    def test_repeat_calls_hit_worker_caches(self):
        svc = small_service()
        serial = solve_offline_multi(svc)
        with ServicePool(2) as pool:
            first = pool.solve(svc)
            second = pool.solve(svc)  # cached arena + instances
        assert_offline_identical(serial, first)
        assert_offline_identical(serial, second)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_processes_route_through_fabric(self, kernel):
        svc = small_service()
        serial = solve_offline_multi(svc, kernel=kernel)
        par = solve_offline_multi(svc, processes=2, kernel=kernel)
        assert_offline_identical(serial, par)
        assert active_segments() == ()

    def test_schedules_reconstruct_through_region(self):
        svc = small_service(items=3, per_item=30)
        serial = solve_offline_multi(svc)
        with ServicePool(2) as pool:
            par = pool.solve(svc)
        for k in svc.items:
            assert (
                par.per_item[k].schedule().transfers
                == serial.per_item[k].schedule().transfers
            )


class TestServeIdentity:
    def test_pool_serve_bit_identical_to_serial(self):
        svc = small_service()
        serial = MultiItemOnlineService(SpeculativeCaching).run(svc)
        with ServicePool(2) as pool:
            runs = pool.serve(svc, SpeculativeCaching)
        assert list(runs) == list(serial.runs)
        for k in runs:
            assert runs[k].cost == serial.runs[k].cost
            assert runs[k].counters == serial.runs[k].counters

    def test_run_with_pool_kwarg(self):
        svc = small_service()
        serial = MultiItemOnlineService(SpeculativeCaching).run(svc)
        with ServicePool(2) as pool:
            par = MultiItemOnlineService(SpeculativeCaching).run(svc, pool=pool)
        assert serial.total_cost == par.total_cost
        assert serial.counters() == par.counters()

    def test_unpicklable_factory_rejected_before_spawn(self):
        svc = small_service(items=2, per_item=5)
        with ServicePool(2) as pool:
            with pytest.raises(ValueError, match="process boundaries"):
                pool.serve(svc, lambda: SpeculativeCaching())


class TestPoolReuse:
    def test_interleaved_services_share_one_pool(self):
        svc_a = small_service(seed=1)
        svc_b = small_service(items=4, per_item=25, seed=2)
        serial_a = solve_offline_multi(svc_a)
        serial_b = solve_offline_multi(svc_b)
        with ServicePool(2) as pool:
            assert_offline_identical(serial_a, pool.solve(svc_a))
            assert_offline_identical(serial_b, pool.solve(svc_b))
            assert_offline_identical(serial_a, pool.solve(svc_a))
            # two live services -> one arena + one result region each
            assert len(active_segments()) == 4
        assert active_segments() == ()

    def test_garbage_collected_service_releases_segments(self):
        with ServicePool(1) as pool:
            svc = small_service(items=2, per_item=10)
            pool.solve(svc)
            assert len(active_segments()) == 2
            del svc
            import gc

            gc.collect()
            assert active_segments() == ()


class TestLifecycle:
    def test_close_is_idempotent_and_unlinks(self):
        svc = small_service(items=2, per_item=10)
        pool = ServicePool(2)
        pool.solve(svc)
        assert active_segments() != ()
        pool.close()
        pool.close()
        assert pool.closed
        assert active_segments() == ()
        assert shm_segments() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.solve(svc)

    def test_pack_error_path_unlinks(self):
        class Broken:
            # items mapping whose second value explodes mid-pack
            @property
            def items(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            ServiceArena.pack(Broken())
        assert active_segments() == ()

    def test_invalid_processes(self):
        with pytest.raises(ValueError, match="processes"):
            ServicePool(0)


class TestCrashRecovery:
    def test_worker_kill_recovers_and_leaks_nothing(self):
        svc = small_service()
        serial = solve_offline_multi(svc)
        with ServicePool(2) as pool:
            assert_offline_identical(serial, pool.solve(svc))
            # Kill every live worker mid-pool; the next call must respawn
            # the executor, retry, and still match serial bit-for-bit.
            for pid in list(pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            assert_offline_identical(serial, pool.solve(svc))
            segments_during = set(active_segments())
        assert active_segments() == ()
        assert shm_segments() == []
        assert segments_during  # the arena survived the crash

    def test_worker_kill_during_serve(self):
        svc = small_service()
        serial = MultiItemOnlineService(SpeculativeCaching).run(svc)
        with ServicePool(2) as pool:
            pool.solve(svc)
            for pid in list(pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            runs = pool.serve(svc, SpeculativeCaching)
        assert sum(r.cost for r in runs.values()) == serial.total_cost
        assert shm_segments() == []
