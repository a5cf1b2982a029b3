"""Space-time graph substrate (Definition 2 of the paper).

The paper views schedules as subgraphs of a weighted directed *space-time
graph* ``G = (V, E, W)``: one vertex per (server, request-instant) pair,
*cache edges* along each server's timeline weighted ``μ·δt``, and
*transfer edges* forming a bidirectional star centred on each request
vertex, weighted ``λ``.  Row 0 models the external storage of the paper
(only meaningful when the upload cost ``β`` is finite).

The graph is a substrate: the offline solvers do not need it (they run on
the flat arrays), but it powers

* independent cost re-derivation of a schedule as a sum of edge weights,
* visual/structural inspection (schedules are trees rooted at the origin
  — Observation 2),
* the migration-only shortest-path baseline used in the benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..core.instance import ProblemInstance
from ..core.types import InvalidScheduleError
from .schedule import Schedule

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_spacetime_graph",
    "schedule_edge_cost",
    "schedule_is_tree",
    "migration_only_cost",
]

Node = Tuple[int, int]  # (server row, request index column); row m = storage


def build_spacetime_graph(
    instance: ProblemInstance, include_storage: bool = False
) -> "nx.DiGraph":
    """Build the Definition-2 graph for ``instance``.

    Nodes are ``(server, i)`` for request columns ``i = 0..n``; when
    ``include_storage`` is true an extra row ``m`` models external storage
    with upload edges weighted ``β`` into each request vertex.

    Cache edges ``(j, i-1) -> (j, i)`` carry weight ``μ(t_i - t_{i-1})``;
    transfer edges between each request vertex ``(s_i, i)`` and every other
    server's column-``i`` vertex (both directions) carry weight ``λ``.
    """
    import networkx as nx

    g = nx.DiGraph()
    m, n = instance.num_servers, instance.n
    cost = instance.cost
    for j in range(m):
        for i in range(n + 1):
            g.add_node((j, i), server=j, time=float(instance.t[i]))
    for j in range(m):
        for i in range(1, n + 1):
            g.add_edge(
                (j, i - 1),
                (j, i),
                weight=cost.mu * float(instance.t[i] - instance.t[i - 1]),
                kind="cache",
            )
    for i in range(1, n + 1):
        s_i = int(instance.srv[i])
        for j in range(m):
            if j == s_i:
                continue
            g.add_edge((j, i), (s_i, i), weight=cost.lam, kind="transfer")
            g.add_edge((s_i, i), (j, i), weight=cost.lam, kind="transfer")
    if include_storage:
        for i in range(n + 1):
            g.add_node((m, i), server=-1, time=float(instance.t[i]))
            if i:
                g.add_edge((m, i - 1), (m, i), weight=0.0, kind="cache")
                g.add_edge(
                    (m, i), (int(instance.srv[i]), i), weight=cost.beta, kind="upload"
                )
    return g


def _column_of_time(instance: ProblemInstance, t: float) -> int:
    """Request column whose instant equals ``t`` (within float identity)."""
    import numpy as np

    idx = int(np.searchsorted(instance.t, t))
    for cand in (idx - 1, idx, idx + 1):
        if 0 <= cand <= instance.n and abs(float(instance.t[cand]) - t) <= 1e-9:
            return cand
    raise InvalidScheduleError(f"time {t} is not a request instant")


def schedule_to_edges(
    schedule: Schedule, instance: ProblemInstance
) -> List[Tuple[Node, Node]]:
    """Map a standard-form schedule onto space-time graph edges.

    Cache intervals become runs of cache edges; transfers become single
    transfer edges at their column.  Requires every interval endpoint and
    transfer instant to be a request instant (standard form).
    """
    edges: List[Tuple[Node, Node]] = []
    canon = schedule.canonical()
    for iv in canon.intervals:
        c0 = _column_of_time(instance, iv.start)
        c1 = _column_of_time(instance, iv.end)
        for i in range(c0 + 1, c1 + 1):
            edges.append(((iv.server, i - 1), (iv.server, i)))
    for tr in canon.transfers:
        c = _column_of_time(instance, tr.time)
        edges.append(((tr.src, c), (tr.dst, c)))
    return edges


def schedule_edge_cost(schedule: Schedule, instance: ProblemInstance) -> float:
    """Re-derive ``Π(Ψ)`` as a sum of space-time edge weights.

    An independent accounting path used by tests to cross-check
    :meth:`Schedule.total_cost`.
    """
    g = build_spacetime_graph(instance)
    total = 0.0
    for u, v in schedule_to_edges(schedule, instance):
        if not g.has_edge(u, v):
            raise InvalidScheduleError(f"schedule uses non-graph edge {u} -> {v}")
        total += g.edges[u, v]["weight"]
    return total


def schedule_is_tree(schedule: Schedule, instance: ProblemInstance) -> bool:
    """True iff the schedule's edge set forms a tree rooted at the origin.

    Observation 2: any optimal schedule is a directed tree rooted at
    ``(origin, 0)``.  Contracting each server's consecutive cache edges,
    the check reduces to: the undirected edge-induced subgraph is acyclic
    and connected, with the origin start vertex included.
    """
    import networkx as nx

    edges = schedule_to_edges(schedule, instance)
    if not edges:
        return True
    dg = nx.DiGraph()
    dg.add_edges_from(edges)
    root = (instance.origin, 0)
    if root not in dg:
        return False
    if dg.number_of_edges() != dg.number_of_nodes() - 1:
        return False
    reachable = nx.descendants(dg, root) | {root}
    return len(reachable) == dg.number_of_nodes()


def migration_only_cost(instance: ProblemInstance) -> float:
    """Cost of the single-copy (migration-only) baseline.

    With exactly one live copy at all times, the copy must sit on the
    requesting server at each request instant, so the schedule is forced:
    cache through every gap (``μ·horizon`` total) and transfer whenever
    consecutive requests hit different servers.  This is the natural lower
    baseline against which replication's benefit is measured in the
    benchmark suite.
    """
    cost = instance.cost.mu * instance.horizon
    moves = int((instance.srv[1:] != instance.srv[:-1]).sum())
    return cost + instance.cost.lam * moves
