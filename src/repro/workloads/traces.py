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
  quoted field may span lines), and the first bad line wins, whatever
  the chunk size: a short row, a ``csv.Error`` or a read error is
  raised only after the rows before it are checked.

The parser runs in two stages with one result.  A log named by path is
read in text blocks of 256 KiB by the compiled block scanner
(``kernels/_csv_scan.c``), which takes a line only when its parse
provably equals the row loop's:

* it ends in ``\\n`` or ``\\r\\n`` and holds no other ``\\r``, no ``"``
  and no NUL;
* it is blank, or has at least as many fields as the header, none
  longer than ``csv.field_size_limit()``;
* ``time`` is a plain decimal, ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?``,
  with a finite value; ``server`` and a non-empty ``user`` are
  ``[+-]?d{1,10}`` within 32 bits; the item name is any text.

From the first line the scanner refuses to the end of the log, the row
loop (``csv.reader``, ``float()``, ``int()``) parses, with its line
numbers continued, so a log that fails fails with the same message on
the same line.  The row loop is also the whole parser for a caller's
open handle (its line ends depend on how it was opened), without a C
compiler, and under ``REPRO_BATCH_SWEEP=python``.  Every log this
repository writes, ``write_trace``'s CRLF lines included, is taken
whole by the scanner.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import (
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError

__all__ = ["TraceRecord", "write_trace", "read_trace", "mine_instance"]

#: ``server`` and ``user`` are 32-bit integers.
_INT32 = range(-(2**31), 2**31)

#: Characters of text the block scanner reads at a time (each block is
#: extended to a line end).  256 KiB keeps the text and its UTF-8 copy in
#: cache between decoding and scanning: on the 1M-row hot log it
#: converted in 0.22-0.26 s against 0.33-0.36 s for 1 MiB blocks, and
#: at a lower peak RSS.
_BLOCK_CHARS = 1 << 18

#: Why a scanner call stopped, and the slots of its position vector —
#: must match ``SCAN_*`` and ``ST_*`` in ``kernels/_csv_scan.c``.
_SCAN_END, _SCAN_FULL, _SCAN_NAMES, _SCAN_REFUSED = range(4)
_ST_POS, _ST_ROW, _ST_LINES, _ST_NAMES = range(4)


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


def _bad_line(line: int, detail: str) -> InvalidInstanceError:
    return InvalidInstanceError(f"bad trace line {line}: {detail}")


def _csv_chunks(
    src: Union[str, Path, TextIO],
    interned: Dict[str, int],
    chunk_rows: int = 1 << 16,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Parse a CSV log into ``(times, servers, users, item_ids)`` chunks.

    The one parser of the module's format, behind :func:`read_trace`
    and ``convert_csv``: chunks of at most ``chunk_rows`` rows as
    ``float64``/``int32`` arrays, item names interned into ``interned``
    in first-appearance order.  A file opened here from a path is
    parsed by the compiled block scanner up to the first line it
    refuses, and by :func:`_row_chunks` from there on; a caller's open
    handle goes to the row loop alone.
    """
    own = isinstance(src, (str, Path))
    fh: TextIO = open(src, "r", newline="") if own else src  # type: ignore[arg-type]
    try:
        header = csv.reader(fh)
        fields = next(header, None)
        if not fields:
            raise InvalidInstanceError("trace is missing its header line")
        line = header.line_num
        if "time" not in fields:
            raise _bad_line(line, "trace is missing its header line (no 'time' column)")
        if "server" not in fields:
            raise _bad_line(line, "trace header lacks a 'server' column")
        if len(set(fields)) < len(fields):
            name = next(f for f in fields if fields.count(f) > 1)
            raise _bad_line(line, f"trace header repeats column {name!r}")
        columns = (
            len(fields),
            fields.index("time"),
            fields.index("server"),
            fields.index("user") if "user" in fields else None,
            fields.index("item") if "item" in fields else None,
        )
        rest: Optional[Iterable[str]] = fh
        if own and fh.seekable():
            from ..kernels.batch import _resolve_backend

            if _resolve_backend() == "c":
                line, rest = yield from _scanned_chunks(
                    fh, columns, interned, chunk_rows, line
                )
        if rest is not None:
            yield from _row_chunks(rest, line, columns, interned, chunk_rows)
    finally:
        if own:
            fh.close()


def _row_chunks(
    lines: Iterable[str],
    line0: int,
    columns: Tuple[Optional[int], ...],
    interned: Dict[str, int],
    chunk_rows: int,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """The row loop: parse the physical lines that follow line ``line0``.

    The specification of the format, the fallback for every line the
    block scanner refuses, and the whole parser without a C compiler.
    ``columns`` is ``(width, time, server, user, item)`` from the
    header, ``None`` for an absent column.  Times and id widths are
    checked once per chunk, which keeps the row loop free of checks.
    """
    reader = csv.reader(lines)
    width, i_time, i_server, i_user, i_item = columns

    def bad(detail: str, line: Optional[int] = None) -> InvalidInstanceError:
        return _bad_line(line0 + (reader.line_num if line is None else line), detail)

    cols: Tuple[list, ...] = ([], [], [], [])
    lines_at: List[int] = []
    add_time, add_server, add_user, add_item = (c.append for c in cols)
    add_line, intern = lines_at.append, interned.setdefault

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
                raise bad("server and user must be 32-bit integers", lines_at[j])
            raise bad(f"request time must be finite, got {times[j]}", lines_at[j])
        for c in (*cols, lines_at):
            c.clear()
        return (times, *ints)

    rows = iter(reader)
    while True:
        # The first bad line is reported, whatever makes it bad and
        # wherever the chunks end: every error checks this chunk's
        # earlier rows before it is raised.
        try:
            row = next(rows)
        except StopIteration:
            break
        except Exception:  # csv.Error, or one from reading the file
            chunk()
            raise
        if len(row) < width:
            if not row:
                continue  # blank line
            chunk()
            raise bad(repr(row))
        try:
            add_time(float(row[i_time]))
            add_server(int(row[i_server]))
            user = row[i_user] if i_user is not None else ""
            add_user(int(user) if user else -1)
        except ValueError as exc:
            for c in cols:
                del c[len(lines_at) :]
            chunk()
            raise bad(repr(row)) from exc
        item = row[i_item] if i_item is not None else ""
        add_item(intern(item, len(interned)))
        add_line(reader.line_num)
        if len(lines_at) == chunk_rows:
            yield chunk()
    if lines_at:
        yield chunk()


def _read_block(fh: TextIO) -> str:
    """About :data:`_BLOCK_CHARS` characters of ``fh``, ending at a line end.

    A block that ends inside ``"\\r\\n"`` is extended to its ``"\\n"``;
    one that ends at a lone ``"\\r"`` stays as it is (the scanner refuses
    that line anyway).
    """
    block = fh.read(_BLOCK_CHARS)
    while block and block[-1] != "\n":
        tail = fh.readline()
        block += tail
        if not tail.endswith("\n"):
            break
    return block


def _scanned_chunks(
    fh: TextIO,
    columns: Tuple[Optional[int], ...],
    interned: Dict[str, int],
    chunk_rows: int,
    line: int,
) -> Generator[Tuple[np.ndarray, ...], None, Tuple[int, Optional[Iterable[str]]]]:
    """Chunks of the lines the compiled scanner takes, block by block.

    Each block is the decoded text re-encoded as UTF-8 (the file is
    decoded strictly, so its text always encodes), and the scanner
    reads it through an offset, never a slice.  Returns ``(line, rest)``
    for :func:`_row_chunks`: the physical lines consumed, and the lines
    left from the first one the scanner refused (``None`` when it took
    them all).  Text that fails to decode makes the row loop read the
    file again from its start, skipping the lines taken, so it fails
    exactly where it fails alone.
    """
    from ..kernels.batch import _addr, _load_sweep_lib

    scan = _load_sweep_lib().repro_csv_scan
    width, i_time, i_server, i_user, i_item = columns
    spec = np.array(
        [
            width,
            i_time,
            i_server,
            -1 if i_user is None else i_user,
            -1 if i_item is None else i_item,
            csv.field_size_limit(),
        ],
        dtype=np.int64,
    )
    # The chunk arrays are allocated whole, so a huge ``chunk_rows``
    # gets chunks of at most a block's worth of rows.
    cap = min(chunk_rows, _BLOCK_CHARS)
    table = np.empty(1 << 10, dtype=np.int32)
    first = np.empty(table.shape[0], dtype=np.int64)
    st = np.zeros(4, dtype=np.int64)
    dtypes = (np.float64, np.int32, np.int32, np.int32)
    chunk = [np.empty(cap, dtype=d) for d in dtypes]
    row = 0
    intern = interned.setdefault
    rest: Optional[Iterable[str]] = None
    while rest is None:
        try:
            block = _read_block(fh)
        except UnicodeDecodeError:
            fh.seek(0)
            deque(islice(fh, line), maxlen=0)
            rest = fh
            break
        if not block:
            break
        data = block.encode("utf-8")
        size = len(data)
        if not block.endswith("\n"):
            data += b"\n"  # the last line of the file
        buf = np.frombuffer(data, dtype=np.uint8)
        st[_ST_POS] = 0
        while True:
            st[_ST_ROW] = row
            why = scan(
                _addr(buf, np.uint8, buf.shape[0]),
                buf.shape[0],
                _addr(spec, np.int64, spec.shape[0]),
                cap,
                *[_addr(c, c.dtype, cap, out=True) for c in chunk],
                _addr(table, np.int32, table.shape[0], out=True),
                table.shape[0],
                _addr(first, np.int64, table.shape[0], out=True),
                _addr(st, np.int64, st.shape[0], out=True),
            )
            got, names = int(st[_ST_ROW]), int(st[_ST_NAMES])
            if names:
                spans = first[: 2 * names].tolist()
                to_global = np.array(
                    [
                        intern(data[at : at + n].decode("utf-8"), len(interned))
                        for at, n in zip(spans[::2], spans[1::2])
                    ],
                    dtype=np.int32,
                )
                chunk[3][row:got] = to_global[chunk[3][row:got]]
            line += int(st[_ST_LINES])
            row = got
            if why == _SCAN_FULL:
                yield tuple(chunk)
                chunk = [np.empty(cap, dtype=d) for d in dtypes]
                row = 0
            elif why == _SCAN_NAMES:
                table = np.empty(4 * table.shape[0], dtype=np.int32)
                first = np.empty(table.shape[0], dtype=np.int64)
            elif why == _SCAN_REFUSED:
                tail = data[int(st[_ST_POS]) : size].decode("utf-8")
                rest = chain(io.StringIO(tail, newline=""), fh)
                break
            else:  # _SCAN_END
                break
    if row:
        yield tuple(c[:row] for c in chunk)
    return line, rest


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
