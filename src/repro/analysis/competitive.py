"""Empirical competitive-ratio measurement and adversarial sequences.

The paper proves ``Π(SC) ≤ 3·Π(OPT)`` (Theorem 3) but reports no
measurements.  This module provides the measurement harness used by the
benchmark suite:

* :func:`empirical_ratio` — one algorithm, one instance, one ratio.
* :func:`ratio_statistics` — ratio distribution over a workload family.
* :func:`ratio_grid` — a whole algorithm grid over shared instances,
  with OPT solved ONCE per instance and reused across the grid.
* :func:`ttl_gamma_sweep` — the TTL(γ) window ablation over one packed
  instance block, one batched online-kernel call per γ.
* Adversarial generators probing how close SC gets to its bound:
  :func:`cyclic_adversary` requests servers round-robin with the gap set
  to a multiple of the speculative window ``Δt = λ/μ`` (just past the
  window is the painful spot: SC pays the dead copy's rent *and* the
  transfer), and :func:`adversarial_gap_sweep` scans that multiple for
  the worst ratio.

Execution model: every multi-instance entry point packs its instances
into one :class:`~repro.kernels.batch.BatchLayout` and pairs ONE batched
online-kernel call with ONE batched DP call per instance block — no
per-instance Python dispatch on the hot path.  Online costs route
through :func:`_online_costs`, the one place a policy's execution path
is picked: a policy :func:`~repro.kernels.online.vector_policy_config`
accepts runs on the batched kernel, any other policy on its own
``run()``.  So a new policy is measured against OPT with no flag, and
results are bit-identical to the per-event/per-item loops (both kernels
are differentially gated against those oracles in the test suite).  All
OPT solves route through the single :func:`_opt_costs` seam, which the
solve-count regression test stubs to pin "OPT solved once per instance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel
from ..kernels.batch import BatchLayout, solve_layout
from ..kernels.online import run_online_layout, vector_policy_config
from ..offline.dp import solve_offline
from ..online.base import OnlineAlgorithm
from ..online.speculative import SpeculativeCaching

__all__ = [
    "empirical_ratio",
    "RatioStats",
    "ratio_statistics",
    "ratio_grid",
    "ttl_gamma_sweep",
    "cyclic_adversary",
    "alternating_adversary",
    "adversarial_gap_sweep",
]


def _pack(instances: Sequence[ProblemInstance]) -> BatchLayout:
    """One batch layout over ``instances``, items named by position."""
    return BatchLayout.from_instances(
        [(str(i), inst) for i, inst in enumerate(instances)]
    )


def _opt_costs(instances: Sequence[ProblemInstance]) -> List[float]:
    """``Π(OPT)`` per instance via ONE batched DP call.

    The single seam every harness entry point routes OPT solves through:
    grids and γ-sweeps call it once per instance block and reuse the
    costs across every algorithm/γ, and the solve-count regression test
    stubs it to pin that contract.  The batched kernel is bit-identical
    to per-instance ``solve_offline`` (gated by the benchmark suite), so
    ratios match the historic per-item harness exactly.
    """
    if not instances:
        return []
    return [res.optimal_cost for res in solve_layout(_pack(instances))]


def _online_costs(
    instances: Sequence[ProblemInstance],
    algorithm_factory: Callable[[], OnlineAlgorithm],
) -> List[float]:
    """``Π(ALG)`` per instance; one batched kernel call when eligible.

    The harness's one dispatch point: policies
    :func:`~repro.kernels.online.vector_policy_config` accepts run as
    one :func:`~repro.kernels.online.run_online_layout` call over the
    packed block, every other policy as a fresh factory product's own
    ``run()`` per instance.
    """
    config = vector_policy_config(algorithm_factory())
    if config is not None:
        window_factor, epoch_size, _name = config
        runs = run_online_layout(_pack(instances), window_factor, epoch_size)
        return [run.cost for run in runs]
    return [algorithm_factory().run(inst).cost for inst in instances]


def _ratios(costs: Sequence[float], opts: Sequence[float]) -> List[float]:
    return [
        cost / opt if opt > 0 else float("inf") for cost, opt in zip(costs, opts)
    ]


def empirical_ratio(
    instance: ProblemInstance,
    algorithm: Optional[OnlineAlgorithm] = None,
    opt_cost: Optional[float] = None,
) -> float:
    """``Π(ALG) / Π(OPT)`` on one instance (ALG defaults to SC).

    ``opt_cost`` short-circuits the OPT solve when the caller already
    holds it (grid sweeps solve OPT once per instance and reuse it).
    """
    algorithm = algorithm if algorithm is not None else SpeculativeCaching()
    online_cost = algorithm.run(instance).cost
    opt = solve_offline(instance).optimal_cost if opt_cost is None else opt_cost
    return online_cost / opt if opt > 0 else float("inf")


@dataclass
class RatioStats:
    """Summary of a ratio sample.

    Attributes
    ----------
    ratios:
        Raw per-instance ratios.
    """

    ratios: np.ndarray

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(self.ratios.mean())

    @property
    def worst(self) -> float:
        """Sample maximum — the empirical competitive ratio witness."""
        return float(self.ratios.max())

    @property
    def p95(self) -> float:
        """95th percentile."""
        return float(np.percentile(self.ratios, 95))

    def __repr__(self) -> str:
        return (
            f"RatioStats(n={self.ratios.size}, mean={self.mean:.4f}, "
            f"p95={self.p95:.4f}, worst={self.worst:.4f})"
        )


def ratio_statistics(
    instances: Iterable[ProblemInstance],
    algorithm_factory: Callable[[], OnlineAlgorithm] = SpeculativeCaching,
) -> RatioStats:
    """Ratio distribution of an algorithm family over many instances.

    One batched online call + one batched DP call over the whole block
    (a per-instance loop only for vector-ineligible policies); ratios
    are bit-identical to the per-event run over OPT either way.
    """
    insts = list(instances)
    if not insts:
        raise ValueError("need at least one instance")
    opts = _opt_costs(insts)
    costs = _online_costs(insts, algorithm_factory)
    return RatioStats(np.asarray(_ratios(costs, opts)))


def ratio_grid(
    instances: Iterable[ProblemInstance],
    algorithms: Mapping[str, Callable[[], OnlineAlgorithm]],
) -> Dict[str, RatioStats]:
    """Ratio distributions for a whole algorithm grid over shared instances.

    OPT is solved ONCE per instance (one batched DP call) and reused
    across every algorithm — the historic harness re-solved it per
    algorithm on the same instance.  Returns ``{algorithm name:
    RatioStats}`` in the mapping's order.
    """
    insts = list(instances)
    if not insts:
        raise ValueError("need at least one instance")
    if not algorithms:
        raise ValueError("need at least one algorithm")
    opts = _opt_costs(insts)
    return {
        name: RatioStats(
            np.asarray(_ratios(_online_costs(insts, factory), opts))
        )
        for name, factory in algorithms.items()
    }


def ttl_gamma_sweep(
    instances: Iterable[ProblemInstance],
    gammas: Sequence[float],
    epoch_size: Optional[int] = None,
) -> List[dict]:
    """TTL(γ) window ablation over shared instances; one row per γ.

    The instances are packed once and each γ is one
    :func:`repro.kernels.online.run_online_layout` call over the packed
    block.  OPT is solved ONCE (one batched DP call) and reused by every
    γ.  Rows carry ``gamma``, ``mean``, ``worst``, ``p95`` and the raw
    ``ratios`` list, bit-identical to the per-event
    ``SpeculativeCaching(window_factor=γ, epoch_size)`` runs over OPT.
    """
    insts = list(instances)
    if not insts:
        raise ValueError("need at least one instance")
    opts = _opt_costs(insts)
    layout = _pack(insts)
    rows: List[dict] = []
    for g in map(float, gammas):
        runs = run_online_layout(layout, g, epoch_size)
        stats = RatioStats(np.asarray(_ratios([run.cost for run in runs], opts)))
        rows.append(
            {
                "gamma": g,
                "mean": stats.mean,
                "worst": stats.worst,
                "p95": stats.p95,
                "ratios": [float(r) for r in stats.ratios],
            }
        )
    return rows


def cyclic_adversary(
    m: int,
    rounds: int,
    gap_factor: float,
    cost: Optional[CostModel] = None,
    origin: int = 0,
) -> ProblemInstance:
    """Round-robin requests with inter-request gap ``gap_factor · λ/μ``.

    The painful regime is a *per-server revisit period* ``m · gap`` just
    past the speculative window: every request misses (its server's copy
    expired moments earlier), so SC pays a transfer *plus* a full window
    of dead rent per request, while the off-line optimum parks the copy
    on one server and pays little beyond the forced transfers.  The gap
    sweep below locates this spot empirically (for ``m = 4`` it peaks
    near ``gap_factor ≈ 0.35``, ratio ≈ 2.1).
    """
    cost = cost if cost is not None else CostModel()
    if m < 2:
        raise ValueError("cyclic adversary needs m >= 2")
    if rounds < 1 or gap_factor <= 0:
        raise ValueError("rounds >= 1 and gap_factor > 0 required")
    gap = gap_factor * cost.speculative_window
    n = m * rounds
    times = gap * np.arange(1, n + 1)
    servers = (np.arange(1, n + 1) + origin) % m
    return ProblemInstance.from_arrays(
        times, servers, num_servers=m, cost=cost, origin=origin
    )


def alternating_adversary(
    rounds: int,
    gap_factor: float,
    cost: Optional[CostModel] = None,
) -> ProblemInstance:
    """Two servers alternating — the ``m = 2`` cyclic special case."""
    return cyclic_adversary(2, rounds, gap_factor, cost=cost)


def adversarial_gap_sweep(
    m: int,
    rounds: int = 20,
    gap_factors: Optional[Sequence[float]] = None,
    cost: Optional[CostModel] = None,
) -> List[dict]:
    """Scan gap factors for the worst SC ratio; rows sorted by factor.

    Returns one dict per factor with keys ``gap_factor``, ``ratio``,
    ``sc_cost``, ``opt_cost`` — the series behind the competitive-ratio
    benchmark's adversarial panel.  The whole scan is two batched kernel
    calls (one online, one DP) over every generated instance.
    """
    if gap_factors is None:
        gap_factors = np.concatenate(
            [np.linspace(0.2, 0.95, 6), np.linspace(1.001, 3.0, 12)]
        )
    insts = [cyclic_adversary(m, rounds, float(gf), cost=cost) for gf in gap_factors]
    opts = _opt_costs(insts)
    sc_costs = _online_costs(insts, SpeculativeCaching)
    return [
        {
            "gap_factor": float(gf),
            "sc_cost": sc_cost,
            "opt_cost": opt,
            "ratio": sc_cost / opt if opt else float("inf"),
        }
        for gf, sc_cost, opt in zip(gap_factors, sc_costs, opts)
    ]
