"""On-disk columnar service logs: binary columns, mmap readers, streaming convert.

The CSV format of :mod:`repro.workloads.traces` is the interchange
format; it is also two orders of magnitude too slow to feed the service
layer at the trace sizes real cache studies use (Cydonia-style block
traces run to hundreds of millions of rows).  This module adds the
binary twin:

* a single-file **columnar container**: an 8-byte magic, a small JSON
  header, then the raw column bytes at 64-byte-aligned offsets —
  ``time`` as little-endian float64, ``server``/``user`` as int32, and
  ``item`` interned to int32 ids over a string table in the header;
* :class:`ColumnarTrace` — writer plus an **mmap-backed lazy reader**:
  opening a container reads only the header; each column materialises as
  a read-only ``np.memmap`` view on first access, so touching one item
  of a huge log never loads the rest;
* :func:`convert_csv` — a **chunked CSV→columnar converter** that
  streams arbitrarily large logs at bounded memory: the chunks of the
  one CSV parser behind :func:`~repro.workloads.traces.read_trace` are
  appended to per-column spill files, then spliced into the container,
  so both readers accept and refuse the same logs;
* :func:`mine_instance_columnar` — mining straight from the mapped
  columns into a :class:`~repro.core.instance.ProblemInstance` with zero
  intermediate :class:`~repro.workloads.traces.TraceRecord` objects.
  It funnels through the same ``_columns_to_instance`` tail as the CSV
  miner (same stable sort, same min-gap sweep), so the result is
  **bit-identical** to ``mine_instance`` on the same log — the property
  test in ``tests/workloads/test_columnar.py`` asserts exactly that.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError
from .traces import TraceRecord, _columns_to_instance, _csv_chunks

__all__ = [
    "ColumnarTrace",
    "write_columnar",
    "read_columnar",
    "convert_csv",
    "mine_instance_columnar",
    "is_columnar",
]

#: Leading bytes of every columnar container (8 bytes: tag + format version).
MAGIC = b"REPROCT\x01"

#: Byte alignment of every column inside the container.
_ALIGN = 64

#: (column name, numpy dtype string) in on-disk order.
_COLUMNS = (
    ("time", "<f8"),
    ("server", "<i4"),
    ("user", "<i4"),
    ("item_id", "<i4"),
)


def _bad_item_id(row: int, item: int, size: int) -> InvalidInstanceError:
    return InvalidInstanceError(
        f"trace row {row} has item id {item}, outside the item table [0, {size})"
    )


def _check_item_ids(ids: np.ndarray, lo: int, size: int) -> None:
    """Refuse the first id, in rows from ``lo``, outside ``[0, size)``."""
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        j = int(np.argmax((ids < 0) | (ids >= size)))
        raise _bad_item_id(lo + j, int(ids[j]), size)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def is_columnar(path: Union[str, Path]) -> bool:
    """True iff ``path`` starts with the columnar container magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class ColumnarTrace:
    """A service log as four parallel columns plus an item string table.

    Two construction modes:

    * in-memory (:meth:`from_records`, or the constructor with arrays) —
      columns are plain ndarrays;
    * :meth:`open` — columns are *lazy*: only the JSON header is read,
      and each column becomes a read-only ``np.memmap`` view into the
      file the first time it is touched.

    Attributes
    ----------
    times, servers, users, item_ids:
        The columns (``float64`` / ``int32`` / ``int32`` / ``int32``).
    item_table:
        Tuple of item-name strings; ``item_ids`` index into it.
    """

    def __init__(
        self,
        times: np.ndarray,
        servers: np.ndarray,
        users: np.ndarray,
        item_ids: np.ndarray,
        item_table: Sequence[str],
    ):
        self._columns: Dict[str, np.ndarray] = {
            "time": np.asarray(times, dtype="<f8"),
            "server": np.asarray(servers, dtype="<i4"),
            "user": np.asarray(users, dtype="<i4"),
            "item_id": np.asarray(item_ids, dtype="<i4"),
        }
        lengths = {c.shape[0] for c in self._columns.values()}
        if len(lengths) > 1:
            raise InvalidInstanceError(
                f"columnar columns disagree on length: {sorted(lengths)}"
            )
        self.item_table: Tuple[str, ...] = tuple(item_table)
        self._rows = lengths.pop() if lengths else 0
        self._path: Optional[Path] = None
        self._offsets: Dict[str, int] = {}
        self._closed = False

    # -- lazy reader ---------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Open a container lazily: header now, columns on first access."""
        path = Path(path)
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise InvalidInstanceError(
                    f"{path} is not a columnar trace container "
                    f"(bad magic {magic!r})"
                )
            (header_len,) = struct.unpack("<Q", fh.read(8))
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InvalidInstanceError(
                    f"{path}: corrupt columnar header"
                ) from exc
        self = cls.__new__(cls)
        self._columns = {}
        self._rows = int(header["rows"])
        self.item_table = tuple(header["item_table"])
        self._path = path
        self._offsets = {
            name: int(header["columns"][name]["offset"]) for name, _ in _COLUMNS
        }
        self._closed = False
        return self

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the column buffers — memmap handles included.

        After ``close()`` every column access raises; long-running
        sweeps over many traces use this (or the context-manager form)
        instead of relying on GC to drop the mappings.  Idempotent.
        """
        self._columns.clear()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _column(self, name: str) -> np.ndarray:
        if self._closed:
            raise ValueError("I/O operation on closed ColumnarTrace")
        col = self._columns.get(name)
        if col is None:  # lazy mmap on first touch
            dtype = dict(_COLUMNS)[name]
            col = np.memmap(
                self._path,
                dtype=dtype,
                mode="r",
                offset=self._offsets[name],
                shape=(self._rows,),
            )
            self._columns[name] = col
        return col

    @property
    def times(self) -> np.ndarray:
        return self._column("time")

    @property
    def servers(self) -> np.ndarray:
        return self._column("server")

    @property
    def users(self) -> np.ndarray:
        return self._column("user")

    @property
    def item_ids(self) -> np.ndarray:
        return self._column("item_id")

    @property
    def rows(self) -> int:
        """Number of log rows."""
        return self._rows

    def __len__(self) -> int:
        return self._rows

    def __repr__(self) -> str:
        kind = "mmap" if self._path is not None else "memory"
        return (
            f"ColumnarTrace(rows={self._rows}, "
            f"items={len(self.item_table)}, {kind})"
        )

    # -- conversion ----------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "ColumnarTrace":
        """Columnarise parsed records (items interned in first appearance)."""
        interned: Dict[str, int] = {}
        item_ids = np.empty(len(records), dtype="<i4")
        for i, r in enumerate(records):
            item_ids[i] = interned.setdefault(r.item, len(interned))
        return cls(
            np.array([r.time for r in records], dtype="<f8"),
            np.array([r.server for r in records], dtype="<i4"),
            np.array([r.user for r in records], dtype="<i4"),
            item_ids,
            tuple(interned),
        )

    def to_records(self) -> List[TraceRecord]:
        """Materialise as :class:`TraceRecord` objects (row order kept)."""
        t, s, u, ids = self.times, self.servers, self.users, self.item_ids
        table = self.item_table
        return [
            TraceRecord(
                time=float(t[i]),
                server=int(s[i]),
                user=int(u[i]),
                item=table[int(ids[i])] if table else "",
            )
            for i in range(self._rows)
        ]

    def items_in_order(self) -> List[str]:
        """Distinct item names in order of first appearance in the rows."""
        ids = self.item_ids
        if ids.shape[0] == 0:
            return []
        uniq, first = np.unique(ids, return_index=True)
        return [self.item_table[int(i)] for i in uniq[np.argsort(first)]]

    # -- writer --------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the container (magic + JSON header + aligned columns)."""
        path = Path(path)
        arrays = {name: self._column(name) for name, _ in _COLUMNS}
        header_bytes, offsets = _build_header(
            self._rows, self.item_table
        )
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name, dtype in _COLUMNS:
                _pad_to(fh, offsets[name])
                fh.write(np.ascontiguousarray(arrays[name], dtype=dtype).tobytes())


def _build_header(
    rows: int, item_table: Sequence[str]
) -> Tuple[bytes, Dict[str, int]]:
    """JSON header bytes (space-padded to alignment) + column offsets."""
    # The offsets depend on the header's length, which depends on the
    # offsets' digit counts — iterate until the layout is a fixed point,
    # and only then emit the header *containing the offsets it was sized
    # with*.  (Digit counts grow monotonically, so this terminates in a
    # couple of rounds.)
    widths = {"<f8": 8, "<i4": 4}
    offsets = {name: 0 for name, _ in _COLUMNS}
    while True:
        header = {
            "version": 1,
            "rows": rows,
            "columns": {
                name: {"dtype": dtype, "offset": offsets[name]}
                for name, dtype in _COLUMNS
            },
            "item_table": list(item_table),
        }
        raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data_start = _aligned(len(MAGIC) + 8 + len(raw))
        offset = data_start
        new_offsets: Dict[str, int] = {}
        for name, dtype in _COLUMNS:
            offset = _aligned(offset)
            new_offsets[name] = offset
            offset += rows * widths[dtype]
        if new_offsets == offsets:
            pad = data_start - len(MAGIC) - 8 - len(raw)
            return raw + b" " * pad, offsets
        offsets = new_offsets


def _pad_to(fh, offset: int) -> None:
    gap = offset - fh.tell()
    if gap < 0:  # pragma: no cover - would indicate a header-layout bug
        raise RuntimeError(f"columnar writer overran offset by {-gap} bytes")
    if gap:
        fh.write(b"\0" * gap)


def _csv_trace(src: Union[str, Path, io.TextIOBase]) -> ColumnarTrace:
    """An in-memory trace of a CSV log: the parser's chunks, concatenated.

    The columns :func:`convert_csv` would write, without the container
    file and without one :class:`TraceRecord` per row.
    """
    interned: Dict[str, int] = {}
    chunks = list(_csv_chunks(src, interned))
    columns = [
        np.concatenate([c[k] for c in chunks]) if chunks else np.empty(0, dtype)
        for k, (_, dtype) in enumerate(_COLUMNS)
    ]
    return ColumnarTrace(*columns, tuple(interned))


def write_columnar(
    records: Sequence[TraceRecord], path: Union[str, Path]
) -> None:
    """Write records as a columnar container (CSV twin: ``write_trace``)."""
    ColumnarTrace.from_records(records).save(path)


def read_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Open a container lazily (CSV twin: ``read_trace``)."""
    return ColumnarTrace.open(path)


# ---------------------------------------------------------------------------
# Streaming CSV -> columnar conversion at bounded memory.
# ---------------------------------------------------------------------------


def convert_csv(
    src: Union[str, Path, io.TextIOBase],
    dest: Union[str, Path],
    chunk_rows: int = 1 << 16,
) -> int:
    """Convert a CSV service log to a columnar container, streaming.

    Rows are parsed ``chunk_rows`` at a time and appended to per-column
    spill files next to ``dest``; the container is then assembled by
    splicing the spill files into place.  Peak memory is bounded by one
    chunk plus the item string table, independent of the log length.
    Returns the number of rows converted.

    Parsing is the same parser as :func:`repro.workloads.traces.read_trace`
    (the format of :mod:`repro.workloads.traces`), so
    :meth:`~ColumnarTrace.to_records` equals its records and
    :func:`mine_instance_columnar` reproduces ``mine_instance`` on the
    CSV bit-for-bit.

    Failure is clean: the container is assembled in a ``.tmp`` sibling
    that is atomically renamed over ``dest`` only on success, and every
    spill file (and the temp file) is removed on any exception — an
    aborted conversion leaves neither orphaned spills nor a partial
    container behind.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    dest = Path(dest)
    tmp = dest.with_name(dest.name + ".tmp")
    spills: Dict[str, io.BufferedRandom] = {}
    interned: Dict[str, int] = {}
    rows = 0
    ok = False
    try:
        for name, _ in _COLUMNS:
            spills[name] = open(
                dest.with_name(dest.name + f".{name}.spill"), "w+b"
            )
        for chunk in _csv_chunks(src, interned, chunk_rows):
            for (name, dtype), col in zip(_COLUMNS, chunk):
                np.asarray(col, dtype=dtype).tofile(spills[name])
            rows += chunk[0].shape[0]

        header_bytes, offsets = _build_header(rows, tuple(interned))
        with open(tmp, "wb") as out:
            out.write(MAGIC)
            out.write(struct.pack("<Q", len(header_bytes)))
            out.write(header_bytes)
            for name, _ in _COLUMNS:
                _pad_to(out, offsets[name])
                spills[name].seek(0)
                shutil.copyfileobj(spills[name], out)
        os.replace(tmp, dest)
        ok = True
        return rows
    finally:
        for spill in spills.values():
            spill.close()
            Path(spill.name).unlink(missing_ok=True)
        if not ok:
            tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Mining straight from the mapped columns.
# ---------------------------------------------------------------------------


def mine_instance_columnar(
    trace: Union[ColumnarTrace, str, Path],
    item: Optional[str] = None,
    num_servers: Optional[int] = None,
    cost: Optional[CostModel] = None,
    origin: int = 0,
    min_gap: float = 1e-9,
) -> ProblemInstance:
    """Columnar twin of :func:`repro.workloads.traces.mine_instance`.

    Selection (vectorized mask), ordering (stable sort by time) and the
    min-gap sweep all match the CSV miner's semantics exactly, and the
    construction tail is literally shared — same instance, bit for bit,
    with zero per-row Python objects.
    """
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.open(trace)
    times, servers = trace.times, trace.servers
    if item is not None:
        try:
            wanted = trace.item_table.index(item)
        except ValueError:
            raise InvalidInstanceError(
                f"trace contains no rows for item {item!r}"
            ) from None
        mask = trace.item_ids == np.int32(wanted)
        times, servers = times[mask], servers[mask]
    if times.shape[0] == 0:
        raise InvalidInstanceError(f"trace contains no rows for item {item!r}")
    return _mine_selected(
        times,
        servers,
        num_servers=num_servers,
        cost=cost,
        origin=origin,
        min_gap=min_gap,
    )


def _mine_selected(
    times: np.ndarray,
    servers: np.ndarray,
    num_servers: Optional[int],
    cost: Optional[CostModel],
    origin: int,
    min_gap: float,
) -> ProblemInstance:
    """Mine already-selected columns: stable sort by time, shared tail."""
    order = np.argsort(times, kind="stable")
    return _columns_to_instance(
        np.ascontiguousarray(times[order], dtype=np.float64),
        servers[order].astype(np.int64),
        num_servers=num_servers,
        cost=cost,
        origin=origin,
        min_gap=min_gap,
    )
