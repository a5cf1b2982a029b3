"""Service-log traces: writing, reading, and mining into instances.

The paper assumes off-line sequences "could be secured in advance by
mining the data service logs" (Section I).  This module fixes a trivial
CSV log format and implements the mining step: parse, filter to one data
item, sort, de-duplicate simultaneous hits, and emit a
:class:`~repro.core.instance.ProblemInstance`.

Log format::

    time,server,user,item
    0.52,3,17,object-A
    0.61,0,4,object-A

The first line is the header; ``time`` and ``server`` are required,
``user`` (default ``-1``) and ``item`` (default ``""``) are optional,
columns may come in any order, and other columns are ignored.  When
``item`` is present the miner selects one item's rows (the model is
per-item).  One parser reads the format, for :func:`read_trace` and
for :func:`~repro.workloads.columnar.convert_csv` alike:

* a header that repeats a column name is refused;
* blank lines are skipped;
* a row that lacks a column named in the header is refused (extra
  trailing fields are ignored);
* ``time`` must parse as a finite float, ``server`` and a non-empty
  ``user`` as 32-bit integers;
* every error names the physical line (``csv.reader.line_num``; a
  quoted field may span lines), and the first bad line wins.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError

__all__ = ["TraceRecord", "write_trace", "read_trace", "mine_instance"]

#: ``server`` and ``user`` are 32-bit integers.
_INT32 = range(-(2**31), 2**31)


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


def _csv_chunks(
    src: Union[str, Path, TextIO],
    interned: Dict[str, int],
    chunk_rows: int = 1 << 16,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Parse a CSV log into ``(times, servers, users, item_ids)`` chunks.

    The one row loop of the module's format, behind :func:`read_trace`
    and ``convert_csv``: chunks of at most ``chunk_rows`` rows as
    ``float64``/``int32`` arrays, item names interned into ``interned``
    in first-appearance order.  Times and id widths are checked once
    per chunk, which keeps the row loop free of checks.
    """
    own = isinstance(src, (str, Path))
    fh: TextIO = open(src, "r", newline="") if own else src  # type: ignore[arg-type]
    try:
        reader = csv.reader(fh)
        fields = next(reader, None)
        if not fields:
            raise InvalidInstanceError("trace is missing its header line")

        def bad(detail: str, line: Optional[int] = None) -> InvalidInstanceError:
            where = reader.line_num if line is None else line
            return InvalidInstanceError(f"bad trace line {where}: {detail}")

        if "time" not in fields:
            raise bad("trace is missing its header line (no 'time' column)")
        if "server" not in fields:
            raise bad("trace header lacks a 'server' column")
        if len(set(fields)) < len(fields):
            name = next(f for f in fields if fields.count(f) > 1)
            raise bad(f"trace header repeats column {name!r}")
        width = len(fields)
        i_time, i_server = fields.index("time"), fields.index("server")
        i_user = fields.index("user") if "user" in fields else None
        i_item = fields.index("item") if "item" in fields else None
        cols: Tuple[list, ...] = ([], [], [], [])
        lines: List[int] = []
        add_time, add_server, add_user, add_item = (c.append for c in cols)
        add_line, intern = lines.append, interned.setdefault

        def chunk() -> Tuple[np.ndarray, ...]:
            """The parsed rows as arrays; raises for the first bad one."""
            times = np.asarray(cols[0], dtype=np.float64)
            wrong = ~np.isfinite(times)
            try:
                ints = [np.asarray(c, dtype=np.int32) for c in cols[1:]]
            except OverflowError:
                wrong |= [not (s in _INT32 and u in _INT32) for s, u in zip(*cols[1:3])]
            if wrong.any():
                j = int(np.argmax(wrong))
                if np.isfinite(times[j]):
                    raise bad("server and user must be 32-bit integers", lines[j])
                raise bad(f"request time must be finite, got {times[j]}", lines[j])
            for c in (*cols, lines):
                c.clear()
            return (times, *ints)

        for row in reader:
            if len(row) < width:
                if not row:
                    continue  # blank line
                raise bad(repr(row))
            try:
                add_time(float(row[i_time]))
                add_server(int(row[i_server]))
                user = row[i_user] if i_user is not None else ""
                add_user(int(user) if user else -1)
            except ValueError as exc:
                # The first bad line is reported: check this chunk's
                # earlier rows before blaming this one.
                for c in cols:
                    del c[len(lines) :]
                chunk()
                raise bad(repr(row)) from exc
            item = row[i_item] if i_item is not None else ""
            add_item(intern(item, len(interned)))
            add_line(reader.line_num)
            if len(lines) == chunk_rows:
                yield chunk()
        if lines:
            yield chunk()
    finally:
        if own:
            fh.close()


def read_trace(src: Union[str, Path, TextIO]) -> List[TraceRecord]:
    """Parse a CSV service log into records (order preserved)."""
    interned: Dict[str, int] = {}
    out: List[TraceRecord] = []
    for times, servers, users, ids in _csv_chunks(src, interned):
        table = list(interned)
        items = [table[k] for k in ids.tolist()]
        out += map(TraceRecord, times.tolist(), servers.tolist(), users.tolist(), items)
    return out


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
    rising = np.diff(times) > 0
    if rising.all():
        return times
    first = int(np.argmin(rising)) + 1
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
