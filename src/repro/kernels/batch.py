"""The off-line DP sweep — batched, instance-major, one call for many items.

This is the one production path for whole sequences:
``solve_offline`` runs it on a one-item layout, and multi-item solves,
``GET /offline``, the trace samplers and the ratio harness run it once
per batch.  The service layer's steady state is thousands of *small*
solves, so per-item Python orchestration (one call, one instance
rebuild, one result object per item) would cost more than the DP
arithmetic.  This module removes the per-item overhead by packing a
whole batch into one array program:

* :class:`BatchLayout` — the concatenated ``t``/``srv`` request
  columns of every item laid back to back (instance-major, each column
  slice contiguous), plus per-item offset/size/cost vectors.  Ragged
  batches need no padding: item ``k`` owns ``[off[k], off[k] + n_k +
  1)`` of every column (index ``off[k]`` is its boundary request
  ``r_0``).  The sweep's per-server registers are one scratch arena of
  ``max_k m_k`` slots, which each item initialises before use.  It is
  built from instances, or from packed raw columns that
  :func:`repro.kernels.prescan.check_columns` checks, as every instance
  is checked; neither build pre-scans.
* :func:`solve_offline_batch` — one kernel call that sweeps every item
  and splits the stacked outputs back into per-item
  :class:`~repro.offline.result.OfflineResult` views, keyed in input
  order.

The sweep itself is the amortised ``O(n + m + P)`` frontier loop, run
once per item on ``t`` and ``srv`` alone: in C over the packed columns,
and in Python as one
:meth:`~repro.offline.streaming.StreamingSolver.extend` per item, the
DP's one Python frontier loop (its class notes give the algorithm).
Both keep ``p(i)``, ``σ_i``, ``C − B`` and ``B`` in the same per-server
registers and running sum.

This module also owns the backend choice for the compiled entry
points: this DP sweep, the SC block step of :mod:`repro.kernels.online`,
the CSV block scanner of :mod:`repro.workloads.traces`, the trace
samplers' pack (``sampling._pack_c``), and the profiler's item-major
pass (``profiler._scan_c``) and LPNF (``predictability._lpnf_c``).
Each has two interchangeable backends, and one process-wide choice
picks the backend for all of them:

``"c"``
    ``_batch_sweep.c``, ``_sc_step.c``, ``_csv_scan.c``,
    ``_prescan.c`` (the pack) and ``_profile.c``, compiled together on
    first use with the system C compiler
    (``$CC``/``cc``/``gcc``/``clang``; ``-O2 -fPIC -shared
    -ffp-contract=off``, no fast-math) into one library in a per-user
    cache directory (``$REPRO_KERNEL_CACHE`` or
    ``$TMPDIR/repro-kernels-<uid>``, named by the hash of the sources
    and the flags) and loaded via :mod:`ctypes`.  Every entry point
    takes raw addresses, each checked first by :func:`_addr` (dtype,
    1-D, contiguous, long enough, writable for outputs).
    ``-ffp-contract=off`` forbids fused multiply-adds, so every
    expression rounds exactly like its Python twin.
``"python"``
    Pure-Python loops — the executable specifications (for the DP
    sweep, ``StreamingSolver.extend``; for the scanner, the
    ``csv.reader`` row loop it fronts; for the pack and the profiler,
    their numpy paths), and the automatic fallback when no compiler
    exists or the build fails.  The scanner, the pack and the
    profiler's pass take only inputs whose result provably equals their
    fallback's, which runs on the rest under either backend.

Both sweep backends are bit-identical to each other and to the
reference sweep on every result field including tie-breaks;
``solve_offline(kernel="frontier")`` pins the Python one for a single
instance.  The differential suites (``tests/offline/test_kernels.py``,
``tests/offline/test_batch_kernel.py``) and the benchmark gates
(``benchmarks/bench_dp_kernels.py``) assert exactly that, as
``tests/online/test_online_kernels.py`` does for both SC steps against
the per-event run.  :func:`batch_sweep_backend` reports the backend in
use.  The ``REPRO_BATCH_SWEEP`` environment variable is the only
switch, for all of them: unset, empty or ``auto`` picks C when the
library builds and Python otherwise, ``c`` / ``python`` pin one backend
(for debugging and CI runs of the fallback), and any other value raises
``ValueError``.

Import discipline: like the rest of :mod:`repro.kernels`, this module
must not import :mod:`repro.core` at module level (the instance
constructor imports the kernels package); core types are imported
lazily inside functions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .prescan import MAX_SERVERS, check_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> kernels)
    from ..core.instance import ProblemInstance
    from ..offline.result import OfflineResult

__all__ = [
    "BatchLayout",
    "solve_offline_batch",
    "solve_layout",
    "batch_sweep_backend",
]


# ---------------------------------------------------------------------------
# Packed layout.
# ---------------------------------------------------------------------------


@dataclass
class BatchLayout:
    """Instance-major packing of a ragged batch of DP instances.

    Both request columns have total length ``total = Σ_k (n_k + 1)``;
    item ``k`` owns the contiguous slice ``[off[k], off[k] + n_k + 1)``
    with its boundary request ``r_0`` at local index 0, so every
    per-item slice is self-contained.
    """

    names: Tuple[str, ...]
    off: np.ndarray  # int64 [items] — column-slice starts
    nreq: np.ndarray  # int64 [items] — per-item n (excl. r_0)
    mserv: np.ndarray  # int64 [items] — per-item fleet size m
    origin: np.ndarray  # int64 [items]
    mu: np.ndarray  # float64 [items]
    lam: np.ndarray  # float64 [items]
    t: np.ndarray  # float64 [total]
    srv: np.ndarray  # int64 [total]

    @property
    def num_items(self) -> int:
        return len(self.names)

    @property
    def total(self) -> int:
        """Total column length ``Σ_k (n_k + 1)``."""
        return int(self.t.shape[0])

    def item_slice(self, k: int) -> slice:
        """The column slice owned by item ``k`` (includes ``r_0``)."""
        lo = int(self.off[k])
        return slice(lo, lo + int(self.nreq[k]) + 1)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_instances(
        cls,
        items: Union[
            Dict[str, "ProblemInstance"],
            Iterable[Tuple[str, "ProblemInstance"]],
        ],
    ) -> "BatchLayout":
        """Pack instances by concatenating their ``t`` and ``srv``.

        The instances are checked already, so this path costs two
        ``np.concatenate`` calls regardless of item count.
        """
        pairs = list(items.items()) if isinstance(items, dict) else list(items)
        if not pairs:
            raise ValueError("need at least one item to build a batch")
        names = tuple(name for name, _ in pairs)
        insts = [inst for _, inst in pairs]
        n1 = np.asarray([inst.n + 1 for inst in insts], dtype=np.int64)
        mserv = np.asarray([inst.num_servers for inst in insts], dtype=np.int64)
        return cls(
            names=names,
            off=_starts(n1),
            nreq=n1 - 1,
            mserv=mserv,
            origin=np.asarray([inst.origin for inst in insts], dtype=np.int64),
            mu=np.asarray([inst.cost.mu for inst in insts], dtype=np.float64),
            lam=np.asarray([inst.cost.lam for inst in insts], dtype=np.float64),
            t=np.concatenate([inst.t for inst in insts]),
            srv=np.concatenate([inst.srv for inst in insts]),
        )

    @classmethod
    def from_columns(
        cls,
        names: Sequence[str],
        t: np.ndarray,
        srv: np.ndarray,
        off: np.ndarray,
        mserv: np.ndarray,
        mu: np.ndarray,
        lam: np.ndarray,
    ) -> "BatchLayout":
        """Pack raw request columns, checked by ONE call for the batch.

        The trace samplers' path: the columns are laid out as
        :func:`repro.kernels.prescan.check_columns` takes them, and that
        one call refuses the request columns an instance of any item's
        rows would refuse, with the same message prefixed ``item
        'name': ``.  Nothing is pre-scanned, so the layout equals
        :meth:`from_instances`' byte for byte.
        """
        t = np.ascontiguousarray(t, dtype=np.float64)
        srv = np.ascontiguousarray(srv, dtype=np.int64)
        off, mserv = np.asarray(off, dtype=np.int64), np.asarray(mserv, dtype=np.int64)
        mu, lam = np.asarray(mu, dtype=np.float64), np.asarray(lam, dtype=np.float64)
        check_columns(t, srv, off, mserv, mu, lam, names)
        return cls(
            names=tuple(names),
            off=off,
            nreq=np.diff(off, append=t.shape[0]) - 1,
            mserv=mserv,
            origin=srv[off],
            mu=mu,
            lam=lam,
            t=t,
            srv=srv,
        )


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums — the slice starts for per-item sizes."""
    out = np.zeros(sizes.shape[0], dtype=np.int64)
    np.cumsum(sizes[:-1], out=out[1:])
    return out


# ---------------------------------------------------------------------------
# C backend: compile on demand with the system toolchain, cache by source
# hash, load via ctypes.  No third-party build machinery — the host's C
# compiler builds it, or every kernel falls back to its Python loop.
# ---------------------------------------------------------------------------

#: The C kernels, built into one library: the DP sweep, the SC step, the
#: CSV block scanner, the trace pack, and the profiler's passes.
_SOURCE_PATHS = tuple(
    os.path.join(os.path.dirname(__file__), name)
    for name in (
        "_batch_sweep.c", "_sc_step.c", "_csv_scan.c", "_prescan.c", "_profile.c"
    )
)

#: Exact flag set the bit-identity contract depends on: -ffp-contract=off
#: forbids FMA contraction; no -ffast-math, no -march (portable cache).
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lib_lock = threading.Lock()
_lib_state: Dict[str, object] = {"loaded": False, "lib": None, "error": None}


def _cache_dir() -> str:
    path = os.environ.get("REPRO_KERNEL_CACHE")
    if not path:
        uid = os.getuid() if hasattr(os, "getuid") else "any"
        path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


def _find_compiler() -> Union[str, None]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile_sweep() -> str:
    """Compile the C kernels into the cache; returns the .so path.

    The artefact name carries the hash of every source and the flags, so
    editing any C file transparently rebuilds and stale caches can
    never serve old code; the ``os.replace`` publish keeps concurrent
    builders race-free.
    """
    h = hashlib.sha256(repr(_CFLAGS).encode())
    for path in _SOURCE_PATHS:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    so_path = os.path.join(_cache_dir(), f"repro_kernels_{h.hexdigest()[:16]}.so")
    if os.path.exists(so_path):
        return so_path
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found (tried $CC, cc, gcc, clang); the kernels "
            "will use their Python loops"
        )
    tmp = f"{so_path}.{os.getpid()}.tmp"
    cmd = [cc, *_CFLAGS, *_SOURCE_PATHS, "-o", tmp, "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise RuntimeError(
            f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}"
        )
    os.replace(tmp, so_path)  # atomic publish
    return so_path


def _load_sweep_lib():
    """Compile+load the C kernels once per process; None when unavailable.

    Returns the :class:`ctypes.CDLL` with ``repro_batch_sweep``,
    ``repro_sc_step``, ``repro_csv_scan``, ``repro_pack_count``,
    ``repro_pack_rows``, ``repro_profile_gaps``, ``repro_profile_bins``,
    ``repro_lpnf_work`` and ``repro_lpnf`` typed.
    """
    with _lib_lock:
        if _lib_state["loaded"]:
            return _lib_state["lib"]
        try:
            lib = ctypes.CDLL(_compile_sweep())
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            fn = lib.repro_batch_sweep
            fn.restype = None
            # n_items, the 8 layout columns, the 5 outputs, the 8
            # scratch arrays (see _sweep_c for the order).
            fn.argtypes = [i64, *[ptr] * 21]
            step = lib.repro_sc_step
            step.restype = i64
            step.argtypes = [
                i64,  # m
                ctypes.c_double,  # W
                i64,  # epoch_size
                i64,  # nblk
                ptr,  # tb
                ptr,  # sb
                ptr,  # iv
                ptr,  # expiry
                ptr,  # cause_kind
                ptr,  # cause_time
                ptr,  # open_life
                ptr,  # group
                ptr,  # qt
                ptr,  # qs
                i64,  # qcap
                *[ptr] * 8,  # ledger columns
                i64,  # lcap
            ]
            scan = lib.repro_csv_scan
            scan.restype = i64
            # buf, len, cols, cap, the 4 row columns, table, tsize,
            # first, st (see traces._scanned_chunks).
            scan.argtypes = [ptr, i64, ptr, i64, *[ptr] * 5, i64, ptr, ptr]
            count = lib.repro_pack_count
            count.restype = i64
            # rows, times, ids, keep, ntab, counts, order, last (see
            # sampling._pack_c and profiler._scan_c).
            count.argtypes = [i64, ptr, ptr, ptr, i64, ptr, ptr, ptr]
            pack = lib.repro_pack_rows
            pack.restype = i64
            # rows, times, servers, ids, keep, ntab, cursor, end, t, srv.
            pack.argtypes = [i64, ptr, ptr, ptr, ptr, i64, *[ptr] * 4]
            gaps = lib.repro_profile_gaps
            gaps.restype = i64
            # rows, times, servers, ids, ntab, counts, goff, soff, scap,
            # seen, last, gaps, gsum, gsq, seq, range (see
            # profiler._scan_c).
            gaps.argtypes = [i64, *[ptr] * 3, i64, *[ptr] * 11]
            bins = lib.repro_profile_bins
            bins.restype = None
            bins.argtypes = [i64, ptr, i64, ptr, ptr]  # ngaps, gaps, bins, edges, hist
            lib.repro_lpnf_work.restype = i64
            lib.repro_lpnf_work.argtypes = [i64]
            lpnf = lib.repro_lpnf
            lpnf.restype = i64
            lpnf.argtypes = [i64, ptr, ptr, ptr]  # n, sym, out, work
            _lib_state["lib"] = lib
        except (OSError, RuntimeError) as exc:
            _lib_state["lib"] = None
            _lib_state["error"] = exc
        _lib_state["loaded"] = True
        return _lib_state["lib"]


def batch_sweep_backend() -> str:
    """The backend the compiled kernels run on now: ``"c"`` / ``"python"``.

    One answer for every compiled entry point: the DP sweep, the SC
    step, the CSV scanner, the trace pack, and the profiler's
    item-major pass and LPNF.  ``REPRO_BATCH_SWEEP``
    (trimmed, case-insensitive) pins it: unset, empty or ``auto`` picks
    C when the library builds and Python otherwise, ``c`` / ``python``
    pin that backend, and any other value raises ``ValueError`` — a
    typo must not silently test the other backend.  Benchmarks use this
    to soften their speedup gates when only the Python loops run.
    """
    raw = os.environ.get("REPRO_BATCH_SWEEP", "")
    forced = raw.strip().lower()
    if forced in ("c", "python"):
        return forced
    if forced not in ("", "auto"):
        raise ValueError(
            f"REPRO_BATCH_SWEEP must be unset, empty, 'auto', 'c' or "
            f"'python'; got {raw!r}"
        )
    return "c" if _load_sweep_lib() is not None else "python"


def _resolve_backend() -> str:
    """:func:`batch_sweep_backend`; ``RuntimeError`` if C is pinned but
    the library cannot be built."""
    backend = batch_sweep_backend()
    if backend == "c" and _load_sweep_lib() is None:
        raise RuntimeError(
            f"REPRO_BATCH_SWEEP=c but the compiled kernels are unavailable: "
            f"{_lib_state['error']}"
        )
    return backend


#: ``repro_batch_sweep``'s layout arguments, in order: per-item vectors,
#: then per-row columns.
_ITEM_COLUMNS = (
    ("off", np.int64),
    ("nreq", np.int64),
    ("mserv", np.int64),
    ("origin", np.int64),
    ("mu", np.float64),
    ("lam", np.float64),
)
_ROW_COLUMNS = (("t", np.float64), ("srv", np.int64))
#: Dtypes of the sweep's per-server registers: open_q, last_t, last_cb,
#: run_min, run_arg, run_srv, fwd, bwd.  Each holds ``max(mserv)``
#: slots, shared by every item.
_SCRATCH = (
    np.int64, np.float64, np.float64, np.float64, np.int64, np.int64, np.int64, np.int64
)


def _addr(arr: np.ndarray, dtype, size: int, out: bool = False) -> int:
    """Address of an array a C kernel reads (or, with ``out``, writes).

    Raises ``ValueError`` unless ``arr`` is a C-contiguous 1-D ``dtype``
    vector of at least ``size`` entries, writable when ``out``: the
    kernels take raw pointers, so nothing else checks what they touch.
    """
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.ndim == 1
        and arr.flags.c_contiguous
        and arr.shape[0] >= size
        and (arr.flags.writeable or not out)
    ):
        raise ValueError(
            f"a C kernel needs a {'writable ' if out else ''}contiguous "
            f"1-D {np.dtype(dtype)} array of at least {size} entries; got "
            f"{getattr(arr, 'dtype', type(arr).__name__)} with shape "
            f"{getattr(arr, 'shape', None)}"
        )
    return arr.ctypes.data


#: Order flags of ``repro_pack_count`` (``_prescan.c``): an item whose
#: times, in row order, repeat one (``_TIE``) or fall (``_FALL``; a NaN
#: compares as a fall).
_TIE, _FALL = 1, 2


def _count_rows(
    trace, keep: np.ndarray
) -> Optional[Tuple[Tuple[int, int, int], int, np.ndarray, np.ndarray]]:
    """``repro_pack_count`` over a trace's mapped columns, or ``None``.

    The first pass of the trace samplers' pack and of the profiler's
    item-major scan.  ``None`` unless the trace's times, servers and
    item ids are native-endian float64/int32/int32 and contiguous, as
    the compiled passes read them in place.  Otherwise ``(columns, bad,
    counts, flags)``: the three column addresses, the first row whose
    item id lies outside ``[0, len(keep))`` (``-1`` if none), the rows
    of each item ``keep`` marks and their order flags (``_TIE``,
    ``_FALL``).
    """
    rows, size = trace.rows, keep.shape[0]
    dtypes = (np.float64, np.int32, np.int32)
    columns = (trace.times, trace.servers, trace.item_ids)
    if not all(c.dtype == dt and c.flags.c_contiguous for c, dt in zip(columns, dtypes)):
        return None
    times, servers, ids = (_addr(c, dt, rows) for c, dt in zip(columns, dtypes))
    counts = np.zeros(size, dtype=np.int64)
    flags = np.zeros(size, dtype=np.uint8)
    last = np.empty(size, dtype=np.float64)
    bad = _load_sweep_lib().repro_pack_count(
        rows,
        times,
        ids,
        _addr(keep, np.uint8, size),
        size,
        _addr(counts, np.int64, size, out=True),
        _addr(flags, np.uint8, size, out=True),
        _addr(last, np.float64, size, out=True),
    )
    return (times, servers, ids), bad, counts, flags


# ---------------------------------------------------------------------------
# Python backend — one StreamingSolver per item.  The no-compiler
# fallback, and the executable specification of the C twin.
# ---------------------------------------------------------------------------


def _sweep_python(
    layout: BatchLayout,
    C: np.ndarray,
    D: np.ndarray,
    served: np.ndarray,
    tag: np.ndarray,
    karg: np.ndarray,
) -> None:
    """The whole-sequence DP sweep, amortised ``O(n + m + P)`` per item.

    Each item's requests run through one
    :meth:`~repro.offline.streaming.StreamingSolver.extend`, the DP's
    one Python frontier loop (its class notes give the algorithm and the
    bit-identity argument), and its five result lists are copied into
    the item's output slices.
    """
    from ..core.types import CostModel
    from ..offline.streaming import StreamingSolver

    t, srv = layout.t, layout.srv
    cost = None
    for lo, n, m, org, mu, lam in zip(
        *(getattr(layout, name).tolist() for name, _ in _ITEM_COLUMNS)
    ):
        if cost is None or (cost.mu, cost.lam) != (mu, lam):
            cost = CostModel(mu, lam)
        hi = lo + n + 1
        solver = StreamingSolver(m, cost, org, t[lo])
        # One item's rows at a time, as native scalars (cheap to index).
        solver.extend(zip(t[lo + 1 : hi].tolist(), srv[lo + 1 : hi].tolist()))
        C[lo:hi] = solver.C
        D[lo:hi] = solver.D
        served[lo:hi] = solver.served
        tag[lo:hi] = solver._tag
        karg[lo:hi] = solver._arg


def _sweep_c(
    layout: BatchLayout,
    C: np.ndarray,
    D: np.ndarray,
    served: np.ndarray,
    tag: np.ndarray,
    karg: np.ndarray,
) -> None:
    items, total = layout.num_items, layout.total
    outputs = (
        (C, np.float64),
        (D, np.float64),
        (served.view(np.uint8), np.uint8),
        (tag, np.int64),
        (karg, np.int64),
    )
    args = [
        *[_addr(getattr(layout, f), dt, items) for f, dt in _ITEM_COLUMNS],
        *[_addr(getattr(layout, f), dt, total) for f, dt in _ROW_COLUMNS],
        *[_addr(arr, dt, total, out=True) for arr, dt in outputs],
    ]
    scratch = [np.empty(int(layout.mserv.max(initial=0)), dtype=dt) for dt in _SCRATCH]
    args += [arr.ctypes.data for arr in scratch]
    _load_sweep_lib().repro_batch_sweep(items, *args)


# ---------------------------------------------------------------------------
# Public solve entry points.
# ---------------------------------------------------------------------------


def solve_layout(layout: BatchLayout) -> List["OfflineResult"]:
    """Sweep a packed layout; per-item results in layout order.

    The sweep runs on the backend :func:`batch_sweep_backend` names.

    Each result's arrays are **read-only views** into the five stacked
    output arrays — zero copies at split time.  ``instance`` is left
    ``None`` (this entry point never sees instances); callers attach
    their own.  Because the arrays are shared views, results must never
    be mutated in place — use ``dataclasses.replace`` to derive
    variants.
    """
    return _solve(layout, _sweep_c if _resolve_backend() == "c" else _sweep_python)


def _check_layout(layout: BatchLayout) -> None:
    """Raise ``ValueError`` unless every offset and index is in range.

    Both sweeps trust them, the C one with raw pointers, so a
    hand-built layout is checked here first, with ``O(total)`` numpy
    operations: one entry per item in each item column, between one
    and :data:`~repro.kernels.prescan.MAX_SERVERS` servers with the
    origin among them, ``μ`` and ``λ`` finite and positive (the cost
    model's check, which the Python sweep's solvers make too), row
    slices that pack ``[0, total)`` in order and server ids in ``[0,
    m)``.  The C sweep's register arena holds ``max(m)`` slots, so
    server ids in range keep it in bounds, and the bound on ``m`` keeps
    one stray fleet size from sizing it; the sweep writes every
    predecessor index itself.
    """
    items, total = layout.num_items, layout.total
    col = {name: np.asarray(getattr(layout, name)) for name, _ in _ITEM_COLUMNS}
    for name, arr in col.items():
        if arr.shape != (items,):
            raise ValueError(
                f"layout column {name!r} has shape {arr.shape}; "
                f"need ({items},), one entry per item"
            )
    srv = np.asarray(layout.srv)[:total]
    if srv.shape != (total,):
        raise ValueError(f"layout column 'srv' needs {total} entries")
    if items == 0:
        return

    def refuse(ok: np.ndarray, what: str) -> None:
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            raise ValueError(f"layout item {layout.names[k]!r}: {what}")

    off, nreq, mserv, origin, mu, lam = col.values()
    refuse(mserv <= MAX_SERVERS, f"need at most {MAX_SERVERS} servers")
    refuse((mserv >= 1) & (origin >= 0) & (origin < mserv), "origin outside [0, m)")
    refuse(
        (mu > 0) & (mu < np.inf) & (lam > 0) & (lam < np.inf),
        "mu and lam must be finite and positive",
    )
    refuse((nreq >= 0) & (nreq < total), f"request count outside [0, {total})")
    starts = _starts(nreq + 1)
    if int(nreq.sum()) + items != total or not np.array_equal(off, starts):
        raise ValueError(f"layout row slices do not pack [0, {total}) in order")
    # The slices pack the rows in order, so reduceat at their starts
    # gives per-item extremes.
    refuse(
        (np.minimum.reduceat(srv, starts) >= 0)
        & (np.maximum.reduceat(srv, starts) < mserv),
        "server id outside [0, m)",
    )


def _solve(layout: BatchLayout, sweep) -> List["OfflineResult"]:
    """:func:`solve_layout` on the given sweep backend, after
    :func:`_check_layout`."""
    from ..offline.result import OfflineResult

    _check_layout(layout)
    total = layout.total
    C = np.empty(total, dtype=np.float64)
    D = np.empty(total, dtype=np.float64)
    served = np.empty(total, dtype=bool)
    tag = np.empty(total, dtype=np.int64)
    karg = np.empty(total, dtype=np.int64)
    sweep(layout, C, D, served, tag, karg)
    for arr in (C, D, served, tag, karg):
        arr.setflags(write=False)  # views share one buffer — guard it
    return [
        OfflineResult(
            instance=None,
            C=C[sl],
            D=D[sl],
            served_by_cache=served[sl],
            choice_d_tag=tag[sl],
            choice_d_k=karg[sl],
            solver="batch-dp",
        )
        for sl in (layout.item_slice(k) for k in range(layout.num_items))
    ]


def solve_offline_batch(
    items: Union[
        Dict[str, "ProblemInstance"], Iterable[Tuple[str, "ProblemInstance"]]
    ],
) -> Dict[str, "OfflineResult"]:
    """Solve a whole batch of instances with ONE kernel call.

    The sweep runs on the backend :func:`batch_sweep_backend` names
    (compiled C when available, Python otherwise; ``REPRO_BATCH_SWEEP``
    pins one).  Both backends are bit-identical.

    Parameters
    ----------
    items:
        Item name → instance (a
        :class:`~repro.service.multi.MultiItemInstance`'s ``items``
        dict), or an iterable of ``(name, instance)`` pairs.

    Returns
    -------
    dict
        Name → :class:`~repro.offline.result.OfflineResult` in the input
        order, each bit-identical to
        ``solve_offline(inst, kernel="reference")`` on every field
        (``C``/``D``/``served_by_cache``/``choice_d_tag``/``choice_d_k``,
        tie-breaks included).  Result arrays are read-only views into
        the batch's stacked outputs; ``instance`` is attached.
    """
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        return {}
    layout = BatchLayout.from_instances(pairs)
    results = solve_layout(layout)
    for (_, inst), res in zip(pairs, results):
        res.instance = inst
    return {name: res for (name, _), res in zip(pairs, results)}
