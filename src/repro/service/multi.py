"""Multi-item data service layer.

The paper analyses a single shared item; a real data service hosts many.
Under the homogeneous cost model items do not interact (no capacity
bound couples them), so the service-level problem decomposes exactly:
the optimal multi-item schedule is the union of per-item optima, and any
per-item online policy runs independently per item.  This module provides
that service layer — the setting of the paper's reference [4] (Wang,
Veeravalli, Tham: multiple shared data items in clouds) restricted to
the homogeneous regime where decomposition is exact:

* :class:`MultiItemInstance` — per-item request sequences over one
  cluster, buildable from a mixed service log;
* :func:`solve_offline_multi` — per-item fast DP plus aggregation;
* :class:`MultiItemOnlineService` — run an online policy factory per
  item over the merged event stream;
* :func:`multi_item_workload` — Zipf-over-items × per-item Poisson
  synthesis.

Both entry points run in-process.  With ``kernel="auto"`` (the default)
the whole service is one batched kernel call — the packed offline sweep
of :mod:`repro.kernels.batch`, or the online replay of
:mod:`repro.kernels.online` for plain SC/TTL — and the results keep
the service's item order.  The per-item loop over
:func:`~repro.offline.dp.solve_offline` or the policy's own replay is
the oracle those calls are tested bit-identical against.

A capacity-coupled variant (items competing for bounded cache space) is
deliberately out of scope: it breaks the decomposition theorem and is
exactly what the paper's "next generation" framing argues away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError
from ..offline.dp import solve_offline
from ..offline.result import OfflineResult
from ..online.base import OnlineAlgorithm
from ..sim.recorder import OnlineRunResult
from ..workloads.synthetic import RngLike, _rng, zipf_weights
from ..workloads.traces import TraceRecord

__all__ = [
    "MultiItemInstance",
    "MultiItemOfflineResult",
    "MultiItemOnlineService",
    "solve_offline_multi",
    "multi_item_workload",
]


class MultiItemInstance:
    """Per-item request sequences sharing one cluster and cost model.

    Parameters
    ----------
    items:
        Mapping from item name to its :class:`ProblemInstance`.  All
        instances must agree on fleet size and cost model (they may have
        different origins — each item starts wherever it was uploaded).
    """

    def __init__(self, items: Dict[str, ProblemInstance]):
        if not items:
            raise InvalidInstanceError("need at least one item")
        sizes = {inst.num_servers for inst in items.values()}
        costs = {inst.cost for inst in items.values()}
        if len(sizes) != 1:
            raise InvalidInstanceError(f"items disagree on fleet size: {sizes}")
        if len(costs) != 1:
            raise InvalidInstanceError("items disagree on cost model")
        self.items = dict(items)
        self.num_servers = sizes.pop()
        self.cost = costs.pop()

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
    ) -> "MultiItemInstance":
        """Split a mixed service log by item and mine each sequence."""
        from ..workloads.traces import mine_instance

        by_item: Dict[str, List[TraceRecord]] = {}
        for r in records:
            by_item.setdefault(r.item or "item-0", []).append(r)
        if num_servers is None:
            num_servers = max(r.server for rs in by_item.values() for r in rs) + 1
        items = {
            name: mine_instance(
                rs, num_servers=num_servers, cost=cost, origin=origin
            )
            for name, rs in by_item.items()
        }
        return cls(items)

    @classmethod
    def from_columnar(
        cls,
        trace,
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
    ) -> "MultiItemInstance":
        """Build the service straight from a columnar trace (zero rows).

        ``trace`` is a :class:`~repro.workloads.columnar.ColumnarTrace`
        or a path to one.  Per-item sequences are carved out of the
        mapped columns with vectorized masks — no intermediate
        :class:`~repro.workloads.traces.TraceRecord` objects — and each
        is mined with the same construction as :meth:`from_records`, so
        the result is bit-identical to the CSV path on the same log.
        Items keep first-appearance order, matching ``from_records``'s
        insertion order.
        """
        from ..workloads.columnar import ColumnarTrace, _mine_selected

        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.open(trace)
        if trace.rows == 0:
            raise InvalidInstanceError("need at least one item")
        if num_servers is None:
            num_servers = int(trace.servers.max()) + 1
        # One stable argsort groups the rows by raw item id while keeping
        # original row order inside each group — O(rows log rows) total,
        # versus one full-column scan per item.
        ids = np.asarray(trace.item_ids)
        order = np.argsort(ids, kind="stable")
        bounds = np.flatnonzero(np.diff(ids[order])) + 1
        segments = np.split(order, bounds)
        # Group raw ids under their display names ("" defaults to
        # "item-0", exactly like from_records), in first-appearance row
        # order so the dict key order matches the CSV path.
        groups: Dict[str, List[np.ndarray]] = {}
        for seg in sorted(segments, key=lambda s: int(s[0])):
            name = trace.item_table[int(ids[seg[0]])] or "item-0"
            groups.setdefault(name, []).append(seg)
        times, servers = trace.times, trace.servers
        items: Dict[str, ProblemInstance] = {}
        for name, segs in groups.items():
            idx = segs[0] if len(segs) == 1 else np.sort(np.concatenate(segs))
            items[name] = _mine_selected(
                times[idx],
                servers[idx],
                num_servers=num_servers,
                cost=cost,
                origin=origin,
                min_gap=1e-9,
            )
        return cls(items)

    @property
    def num_items(self) -> int:
        """Number of hosted items."""
        return len(self.items)

    @property
    def total_requests(self) -> int:
        """Requests across all items."""
        return sum(inst.n for inst in self.items.values())

    def __repr__(self) -> str:
        return (
            f"MultiItemInstance(items={self.num_items}, "
            f"requests={self.total_requests}, m={self.num_servers})"
        )


@dataclass
class MultiItemOfflineResult:
    """Aggregate of per-item optimal solutions.

    Attributes
    ----------
    per_item:
        Item name → :class:`OfflineResult`.
    """

    per_item: Dict[str, OfflineResult]

    @property
    def total_cost(self) -> float:
        """Service-level optimal cost (sum of per-item optima)."""
        return sum(r.optimal_cost for r in self.per_item.values())

    @property
    def total_lower_bound(self) -> float:
        """Sum of per-item running bounds."""
        return sum(r.lower_bound for r in self.per_item.values())

    def cost_breakdown(self) -> Dict[str, float]:
        """Item name → optimal cost, sorted by cost descending."""
        return dict(
            sorted(
                ((k, r.optimal_cost) for k, r in self.per_item.items()),
                key=lambda kv: -kv[1],
            )
        )


def solve_offline_multi(
    service: MultiItemInstance, kernel: str = "auto"
) -> MultiItemOfflineResult:
    """Optimal service-level schedule: per-item fast DP, exact by
    decomposition (no capacity coupling in the homogeneous model).

    ``kernel`` is the DP sweep — ``"auto"`` / ``"frontier"`` /
    ``"reference"``.  ``"auto"`` (default) solves the whole service with
    ONE call to the batched instance-major kernel
    (:func:`repro.kernels.batch.solve_offline_batch`);
    ``"frontier"``/``"reference"`` run
    :func:`repro.offline.dp.solve_offline` per item.  All choices are
    bit-identical: same ``per_item`` key order, same cost vectors, same
    totals.
    """
    if kernel == "auto":
        # One batched kernel call for the whole service: the packed
        # instance-major sweep (repro.kernels.batch) replaces the
        # per-item solve_offline loop — same arrays bit-for-bit, but the
        # per-item Python orchestration cost is gone.
        from ..kernels.batch import solve_offline_batch

        return MultiItemOfflineResult(per_item=solve_offline_batch(service.items))
    return MultiItemOfflineResult(
        per_item={
            name: solve_offline(inst, kernel=kernel)
            for name, inst in service.items.items()
        }
    )


@dataclass
class MultiItemOnlineService:
    """Run an online policy independently per hosted item.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.online.base.OnlineAlgorithm` per item.
    """

    policy_factory: Callable[[], OnlineAlgorithm]
    runs: Dict[str, OnlineRunResult] = field(default_factory=dict)

    def run(
        self, service: MultiItemInstance, kernel: str = "auto"
    ) -> "MultiItemOnlineService":
        """Serve every item's stream; returns self for chaining.

        ``kernel`` selects the online execution path (``"auto"`` /
        ``"event"``): with an eligible policy (plain
        ``SpeculativeCaching``), ``"auto"`` serves the whole item batch
        with ONE batched online-kernel call instead of a per-item hook
        replay.  Otherwise each item gets a fresh policy from the
        factory.  Either way ``runs`` is bit-identical to the per-item
        loop: same key order, same costs, same counters.
        """
        from ..kernels.online import (
            ONLINE_KERNELS,
            run_online_batch,
            vector_policy_config,
        )

        if kernel not in ONLINE_KERNELS:
            raise ValueError(
                f"unknown online kernel {kernel!r}; valid: {ONLINE_KERNELS}"
            )
        config = (
            vector_policy_config(self.policy_factory())
            if kernel == "auto"
            else None
        )
        if config is not None:
            window_factor, epoch_size, algo_name = config
            self.runs = run_online_batch(
                service.items,
                window_factor=window_factor,
                epoch_size=epoch_size,
                algorithm_name=algo_name,
            )
        else:
            self.runs = {
                name: self.policy_factory().run(inst, kernel=kernel)
                for name, inst in service.items.items()
            }
        return self

    @property
    def total_cost(self) -> float:
        """Aggregate online cost."""
        if not self.runs:
            raise RuntimeError("call run() first")
        return sum(r.cost for r in self.runs.values())

    def counters(self) -> Dict[str, int]:
        """Summed counters across items."""
        out: Dict[str, int] = {}
        for run in self.runs.values():
            for k, v in run.counters.items():
                out[k] = out.get(k, 0) + v
        return out


def _apportion_counts(weights: np.ndarray, n_total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``n_total`` requests.

    Invariants (the workload generator documents and tests both):
    ``counts.sum() == n_total`` exactly, and ``counts.min() >= 1``
    (callers guarantee ``n_total >= len(weights)``).  Naive
    ``round(weights * n_total)`` breaks the first invariant — rounding
    errors accumulate and the workload over- or under-shoots its budget.

    Floors are distributed first; the leftover goes to the largest
    fractional remainders (ties to the lower index, so the split is
    deterministic).  Items floored to zero are then funded by the
    largest bin, which by pigeonhole holds at least two requests.
    """
    quotas = np.asarray(weights, dtype=float) * n_total
    counts = np.floor(quotas).astype(int)
    remainders = quotas - counts
    deficit = int(n_total - counts.sum())
    if deficit > 0:
        order = np.lexsort((np.arange(len(counts)), -remainders))
        counts[order[:deficit]] += 1
    for idx in np.where(counts == 0)[0]:
        counts[int(np.argmax(counts))] -= 1
        counts[idx] += 1
    return counts


def multi_item_workload(
    num_items: int,
    n_total: int,
    m: int,
    item_zipf: float = 1.0,
    rate: float = 1.0,
    server_zipf: float = 0.8,
    cost: Optional[CostModel] = None,
    rng: RngLike = None,
) -> MultiItemInstance:
    """Synthesise a multi-item service workload.

    Items get request volume by a Zipf law (``item_zipf``); each item's
    own stream is Poisson in time with Zipf-skewed server popularity
    (independent permutations per item so hot servers differ across
    items, as they do in real services).

    Sizing invariant: the result has ``total_requests == n_total``
    *exactly*, with every item receiving at least one request.  Volumes
    are apportioned by the largest-remainder method (deterministic given
    the Zipf weights), so downstream benchmarks can treat ``n_total`` as
    a hard budget rather than a target the rounding may overshoot.
    """
    if num_items < 1 or n_total < num_items:
        raise InvalidInstanceError(
            f"need >= 1 item and n_total >= num_items, got "
            f"{num_items}/{n_total}"
        )
    g = _rng(rng)
    cost = cost if cost is not None else CostModel()
    weights = zipf_weights(num_items, item_zipf)
    counts = _apportion_counts(weights, n_total)
    items: Dict[str, ProblemInstance] = {}
    base_pop = zipf_weights(m, server_zipf)
    for k in range(num_items):
        perm = g.permutation(m)
        pop = base_pop[perm]
        gaps = g.exponential(1.0 / rate, size=int(counts[k]))
        times = np.cumsum(np.maximum(gaps, 1e-12))
        servers = g.choice(m, size=int(counts[k]), p=pop)
        items[f"item-{k}"] = ProblemInstance.from_arrays(
            times,
            servers,
            num_servers=m,
            cost=cost,
            origin=int(g.integers(0, m)),
        )
    return MultiItemInstance(items)
