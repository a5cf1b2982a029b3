"""Service-log traces: writing, reading, and mining into instances.

The paper assumes off-line sequences "could be secured in advance by
mining the data service logs" (Section I).  This module fixes a trivial
CSV log format and implements the mining step: parse, filter to one data
item, sort, de-duplicate simultaneous hits, and emit a
:class:`~repro.core.instance.ProblemInstance`.

Log format (header required)::

    time,server,user,item
    0.52,3,17,object-A
    0.61,0,4,object-A

``user`` and ``item`` are optional columns; when ``item`` is present the
miner selects one item's rows (the model is per-item).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Union

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError

__all__ = ["TraceRecord", "write_trace", "read_trace", "mine_instance"]


@dataclass(frozen=True)
class TraceRecord:
    """One service-log line."""

    time: float
    server: int
    user: int = -1
    item: str = ""


def write_trace(
    records: Sequence[TraceRecord], dest: Union[str, Path, TextIO]
) -> None:
    """Write records as CSV (with header) to a path or open text file."""
    own = isinstance(dest, (str, Path))
    fh: TextIO = open(dest, "w", newline="") if own else dest  # type: ignore[arg-type]
    try:
        w = csv.writer(fh)
        w.writerow(["time", "server", "user", "item"])
        for r in records:
            w.writerow([repr(r.time), r.server, r.user, r.item])
    finally:
        if own:
            fh.close()


def _nonfinite_time(lineno: int, time: float) -> str:
    """The error both CSV parsers raise for a NaN or infinite time."""
    return f"bad trace line {lineno}: request time must be finite, got {time}"


def read_trace(src: Union[str, Path, TextIO]) -> List[TraceRecord]:
    """Parse a CSV service log into records (order preserved)."""
    own = isinstance(src, (str, Path))
    fh: TextIO = open(src, "r", newline="") if own else src  # type: ignore[arg-type]
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "time" not in reader.fieldnames:
            raise InvalidInstanceError("trace is missing its header line")
        if "server" not in reader.fieldnames:
            raise InvalidInstanceError("trace header lacks a 'server' column")
        out: List[TraceRecord] = []
        for lineno, row in enumerate(reader, start=2):
            try:
                rec = TraceRecord(
                    time=float(row["time"]),
                    server=int(row["server"]),
                    user=int(row.get("user") or -1),
                    item=(row.get("item") or ""),
                )
            except (TypeError, ValueError) as exc:
                raise InvalidInstanceError(
                    f"bad trace line {lineno}: {row!r}"
                ) from exc
            if not math.isfinite(rec.time):
                raise InvalidInstanceError(_nonfinite_time(lineno, rec.time))
            out.append(rec)
        return out
    finally:
        if own:
            fh.close()


def mine_instance(
    src: Union[str, Path, TextIO, Sequence[TraceRecord]],
    item: Optional[str] = None,
    num_servers: Optional[int] = None,
    cost: Optional[CostModel] = None,
    origin: int = 0,
    min_gap: float = 1e-9,
) -> ProblemInstance:
    """Mine a service log into a per-item problem instance.

    Parameters
    ----------
    src:
        Path / file of CSV lines, or pre-parsed records.
    item:
        Select rows for this item; ``None`` keeps every row (single-item
        logs).
    num_servers:
        Fleet size; defaults to the largest server id seen plus one.
    cost, origin:
        Instance parameters.
    min_gap:
        Simultaneous or out-of-order stamps (clock skew across log
        shards) are nudged forward so times are strictly increasing —
        mining must not crash on real logs.
    """
    records = src if not isinstance(src, (str, Path, io.TextIOBase)) else read_trace(src)
    rows = [r for r in records if item is None or r.item == item]
    if not rows:
        raise InvalidInstanceError(
            f"trace contains no rows for item {item!r}"
        )
    rows = sorted(rows, key=lambda r: r.time)
    times = np.array([r.time for r in rows], dtype=np.float64)
    servers = np.array([r.server for r in rows], dtype=np.int64)
    return _columns_to_instance(
        times,
        servers,
        num_servers=num_servers,
        cost=cost,
        origin=origin,
        min_gap=min_gap,
    )


def _enforce_min_gap(times: np.ndarray, min_gap: float) -> np.ndarray:
    """Nudge simultaneous/out-of-order stamps so times strictly increase.

    Semantics are exactly the historical scalar sweep — ``times[i]``
    becomes ``times[i - 1] + min_gap`` iff it does not already exceed
    the (possibly nudged) predecessor — including its floating-point
    evaluation order, so the CSV and columnar mining paths produce
    bit-identical instances.  Already-clean logs (the common case) cost
    one vectorized check; the scalar loop runs only from the first
    violation onward.
    """
    if times.shape[0] < 2 or bool(np.all(np.diff(times) > 0)):
        return times
    first = int(np.flatnonzero(np.diff(times) <= 0)[0]) + 1
    for i in range(first, times.shape[0]):
        if times[i] <= times[i - 1]:
            times[i] = times[i - 1] + min_gap
    return times


def _columns_to_instance(
    times: np.ndarray,
    servers: np.ndarray,
    num_servers: Optional[int],
    cost: Optional[CostModel],
    origin: int,
    min_gap: float,
) -> ProblemInstance:
    """Shared mining tail: sorted time/server columns -> instance.

    ``times`` must be sorted ascending (ties in original order) and
    writable; both the CSV and the columnar miners funnel through here,
    which is what guarantees their results are bit-identical.
    """
    times = _enforce_min_gap(times, min_gap)
    start = times[0] - max(min_gap, 1e-6)
    return ProblemInstance.from_arrays(
        times,
        servers,
        num_servers=num_servers,
        cost=cost,
        origin=origin,
        start_time=0.0 if start > 0 else start,
    )
