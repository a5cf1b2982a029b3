"""Item sharding for the process-parallel multi-item service layer.

Under the homogeneous cost model the multi-item problem decomposes
exactly into independent per-item instances (see :mod:`repro.service.multi`),
so the service layer is embarrassingly parallel: partition the items into
shards, ship each shard to a worker process, and merge.  This module owns
the partitioning; the shard workers that consume the plans live in
:mod:`repro.service.fabric`.

Two strategies are provided:

* ``"size"`` (default) — longest-processing-time greedy: items sorted by
  request count descending go to the currently lightest shard.  The DP is
  ``O(mn)`` per item, so request count is a faithful proxy for work and
  this keeps shard makespans balanced even under Zipf-skewed volumes.
* ``"hash"`` — stable content hash of the item name (``zlib.crc32``, *not*
  the salted builtin ``hash``) modulo the shard count.  Placement of an
  item never depends on which other items are present, which matters when
  shards map to long-lived worker state across requests.

Both strategies are deterministic functions of the item names and sizes;
empty shards are dropped.  Sharding never affects results:
:class:`~repro.service.fabric.ServicePool` merges shard outputs back into
the original item order, so parallel runs are bit-identical to serial
ones regardless of strategy or shard count.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Dict, List

from ..core.instance import ProblemInstance

__all__ = ["plan_shards", "SHARD_STRATEGIES"]

#: Supported values for ``strategy=`` across the service layer.
SHARD_STRATEGIES = ("size", "hash")


def plan_shards(
    items: Dict[str, ProblemInstance],
    shards: int,
    strategy: str = "size",
) -> List[List[str]]:
    """Partition item names into at most ``shards`` non-empty bins.

    Parameters
    ----------
    items:
        Item name → instance (the ``items`` dict of a
        :class:`~repro.service.multi.MultiItemInstance`).
    shards:
        Target shard count (``>= 1``); fewer may be returned when there
        are fewer items than shards, or when hashing leaves bins empty.
    strategy:
        ``"size"`` (LPT greedy on request counts) or ``"hash"``
        (``crc32(name) % shards``).

    Returns
    -------
    list of list of str
        Deterministic partition of the item names; within each shard the
        names keep the input dict's order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; choose from {SHARD_STRATEGIES}"
        )
    names = list(items)
    shards = min(shards, len(names))
    bins: List[List[str]] = [[] for _ in range(shards)]
    if strategy == "hash":
        for name in names:
            bins[zlib.crc32(name.encode("utf-8")) % shards].append(name)
    else:  # size: LPT greedy, ties broken by input order then bin index
        order = sorted(range(len(names)), key=lambda i: (-items[names[i]].n, i))
        # Heap keyed (load, bin index): each placement is O(log shards)
        # instead of the former loads.index(min(loads)) linear scan —
        # O(items log shards) total, not O(items × shards).  The heap
        # pops the lexicographic minimum, which is exactly the scan's
        # answer (lightest bin, lowest index among ties), so plans are
        # byte-identical to the old loop (golden-pinned in
        # tests/service/test_sharding.py).
        heap = [(0, b) for b in range(shards)]
        for i in order:
            load, b = heapq.heappop(heap)
            bins[b].append(names[i])
            heapq.heappush(heap, (load + items[names[i]].n, b))
        input_rank = {name: i for i, name in enumerate(names)}
        for b in bins:
            b.sort(key=input_rank.__getitem__)
    return [b for b in bins if b]
