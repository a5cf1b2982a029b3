"""The off-line DP sweep — batched, instance-major, one call for many items.

This is the one production path for whole sequences:
``solve_offline`` runs it on a one-item layout, and multi-item solves,
``GET /offline``, the trace samplers and the ratio harness run it once
per batch.  The service layer's steady state is thousands of *small*
solves, so per-item Python orchestration (one call, one instance
rebuild, one result object per item) would cost more than the DP
arithmetic.  This module removes the per-item overhead by packing a
whole batch into one array program:

* :class:`BatchLayout` — the concatenated ``t``/``srv``/``p``/``sigma``/
  ``B`` request columns of every item laid back to back (instance-major,
  each column slice contiguous), plus per-item offset/size/cost vectors
  and a stacked per-server accumulator arena.  Ragged batches need no
  padding: item ``k`` owns ``[off[k], off[k] + n_k + 1)`` of every
  column (index ``off[k]`` is its boundary request ``r_0``) and
  ``[soff[k], soff[k] + m_k)`` of the server-state arena.  It is built
  from pre-scanned instances, or from packed raw ``t``/``srv`` columns
  that :func:`repro.kernels.prescan.prescan_columns` checks and
  pre-scans in one call — the call every instance makes for itself.
* :func:`solve_offline_batch` — one kernel call that sweeps every item
  and splits the stacked outputs back into per-item
  :class:`~repro.offline.result.OfflineResult` views, keyed in input
  order.

The sweep itself is the amortised ``O(n + m + P)`` frontier loop (its
algorithm notes are on :func:`_sweep_python`), run once per item over
the packed columns.

This module also owns the backend choice for the compiled entry
points: this DP sweep, the SC block step of :mod:`repro.kernels.online`,
the CSV block scanner of :mod:`repro.workloads.traces`, the pre-scan of
:func:`repro.kernels.prescan.prescan_columns`, the trace samplers'
pack (``sampling._pack_c``), and the profiler's item-major pass
(``profiler._scan_c``) and LPNF (``predictability._lpnf_c``).  Each has
two interchangeable backends, and one process-wide choice picks the
backend for all of them:

``"c"``
    ``_batch_sweep.c``, ``_sc_step.c``, ``_csv_scan.c``,
    ``_prescan.c`` and ``_profile.c``, compiled together on first use
    with the system C compiler
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
    Pure-Python loops — the executable specifications (for the scanner,
    the ``csv.reader`` row loop it fronts; for the pre-scan, the pack
    and the profiler, their numpy paths), and the automatic fallback
    when no compiler exists or the build fails.  The scanner, the
    pre-scan, the pack and the profiler's pass take only inputs whose
    result provably equals their fallback's, which runs on the rest
    under either backend.

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
import math
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .prescan import prescan_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> kernels)
    from ..core.instance import ProblemInstance
    from ..offline.result import OfflineResult

__all__ = [
    "BatchLayout",
    "solve_offline_batch",
    "solve_layout",
    "batch_sweep_backend",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# Packed layout.
# ---------------------------------------------------------------------------


@dataclass
class BatchLayout:
    """Instance-major packing of a ragged batch of DP instances.

    All request columns have total length ``total = Σ_k (n_k + 1)``;
    item ``k`` owns the contiguous slice ``[off[k], off[k] + n_k + 1)``
    with its boundary request ``r_0`` at local index 0.  ``p`` holds
    *item-local* predecessor indices (``-1`` for a server's first
    request), so every per-item slice is self-contained.  The
    server-state arena spans ``Σ_k m_k`` slots starting at ``soff[k]``
    per item.
    """

    names: Tuple[str, ...]
    off: np.ndarray  # int64 [items] — column-slice starts
    nreq: np.ndarray  # int64 [items] — per-item n (excl. r_0)
    soff: np.ndarray  # int64 [items] — server-arena starts
    mserv: np.ndarray  # int64 [items] — per-item fleet size m
    origin: np.ndarray  # int64 [items]
    mu: np.ndarray  # float64 [items]
    lam: np.ndarray  # float64 [items]
    t: np.ndarray  # float64 [total]
    srv: np.ndarray  # int64 [total]
    p: np.ndarray  # int64 [total] — item-local predecessor indices
    sigma: np.ndarray  # float64 [total]
    B: np.ndarray  # float64 [total]

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
        """Pack pre-scanned instances by concatenating their columns.

        The instances' own ``p``/``sigma``/``B`` arrays are reused
        verbatim (``p`` is already item-local), so this path costs a
        handful of ``np.concatenate`` calls regardless of item count.
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
            soff=_starts(mserv),
            mserv=mserv,
            origin=np.asarray([inst.origin for inst in insts], dtype=np.int64),
            mu=np.asarray([inst.cost.mu for inst in insts], dtype=np.float64),
            lam=np.asarray([inst.cost.lam for inst in insts], dtype=np.float64),
            t=np.concatenate([inst.t for inst in insts]),
            srv=np.concatenate([inst.srv for inst in insts]),
            p=np.concatenate([inst.p for inst in insts]),
            sigma=np.concatenate([inst.sigma for inst in insts]),
            B=np.concatenate([inst.B for inst in insts]),
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
        """Pack raw request columns, running ONE pre-scan for the batch.

        The trace samplers' path: the columns are laid out as
        :func:`repro.kernels.prescan.prescan_columns` takes them, and
        that one call checks and pre-scans the whole batch, the same
        call every :class:`~repro.core.instance.ProblemInstance` makes
        for itself, so the layout equals :meth:`from_instances`' byte
        for byte.
        """
        t = np.ascontiguousarray(t, dtype=np.float64)
        srv = np.ascontiguousarray(srv, dtype=np.int64)
        off, mserv = np.asarray(off, dtype=np.int64), np.asarray(mserv, dtype=np.int64)
        mu, lam = np.asarray(mu, dtype=np.float64), np.asarray(lam, dtype=np.float64)
        p, sigma, _, B = prescan_columns(t, srv, off, mserv, mu, lam, names)
        return cls(
            names=tuple(names),
            off=off,
            nreq=np.diff(off, append=t.shape[0]) - 1,
            soff=_starts(mserv),
            mserv=mserv,
            origin=srv[off],
            mu=mu,
            lam=lam,
            t=t,
            srv=srv,
            p=p,
            sigma=sigma,
            B=B,
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
#: CSV block scanner, the trace pack and pre-scan, and the profiler's
#: passes.
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
    ``repro_pack_rows``, ``repro_prescan``, ``repro_profile_gaps``,
    ``repro_profile_bins``, ``repro_lpnf_work`` and ``repro_lpnf`` typed.
    """
    with _lib_lock:
        if _lib_state["loaded"]:
            return _lib_state["lib"]
        try:
            lib = ctypes.CDLL(_compile_sweep())
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            fn = lib.repro_batch_sweep
            fn.restype = i64
            # n_items, the 12 layout columns, the 5 outputs, the 7
            # scratch arrays (see _sweep_c for the order).
            fn.argtypes = [i64, *[ptr] * 24]
            step = lib.repro_sc_step
            step.restype = i64
            step.argtypes = [
                i64,  # m
                ctypes.c_double,  # W
                i64,  # epoch_size
                i64,  # j0
                i64,  # nblk
                ptr,  # tb
                ptr,  # sb
                ptr,  # iv
                ptr,  # expiry
                ptr,  # cause_kind
                ptr,  # cause_time
                ptr,  # open_life
                ptr,  # scratch
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
            prescan = lib.repro_prescan
            prescan.restype = i64
            # items, total, the 4 item and 2 row columns, the 4 outputs,
            # last, nlast (see prescan._prescan_c).
            prescan.argtypes = [i64, i64, *[ptr] * 11, i64]
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
    step, the CSV scanner, the pre-scan, the trace pack, and the
    profiler's item-major pass and LPNF.  ``REPRO_BATCH_SWEEP``
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
    ("soff", np.int64),
    ("mserv", np.int64),
    ("origin", np.int64),
    ("mu", np.float64),
    ("lam", np.float64),
)
_ROW_COLUMNS = (
    ("t", np.float64),
    ("srv", np.int64),
    ("p", np.int64),
    ("sigma", np.float64),
    ("B", np.float64),
)
#: Dtypes of the sweep's per-server scratch arrays: open_q, run_min,
#: run_arg, run_srv, fwd, bwd, listed.
_SCRATCH = (np.int64, np.float64, np.int64, np.int64, np.int64, np.int64, np.uint8)


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
# Python backend — the frontier sweep over packed columns.  Executable
# specification for the C twin, and the no-compiler fallback.
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

    The reference sweep (:mod:`repro.offline.dp`) enumerates the cover
    set ``π(i)`` of Definition 8 afresh for every request: ``m`` pivot
    probes per request, ``O(mn)`` in all.  This loop computes the same
    recurrences without ever *searching* for a pivot, from two
    monotonicity facts:

    1. For a fixed server ``s``, the queries it issues are monotone: the
       ``i``-th request on ``s`` asks for pivots at ``q = p(i)``, which
       is exactly where its previous request sat.  So each server
       *accumulates* its pivot candidates between its own consecutive
       requests instead of looking them back up.
    2. Request ``k`` is a pivot candidate for server ``s`` iff ``s`` has
       a request in the half-open index window ``(p(k), k]``, i.e. iff
       ``s``'s most recent request is *more recent* than ``p(k)``.
       Servers ordered by recency of their last request form a
       move-to-front list, and the candidates of ``k`` are exactly a
       prefix of it.

    Per server ``s`` the sweep keeps ``open_q[s]`` (index of ``s``'s
    most recent request: its next request's ``p(i)``) and
    ``run_min[s]`` / ``run_arg[s]`` (the running minimum of
    ``D(k) − B_k`` over the candidates accumulated since ``open_q[s]``,
    and its argmin), plus one move-to-front list of servers
    (``fwd``/``bwd`` links, ``head``) ordered by ``open_q`` descending.
    Request ``k`` walks the list head-first, offering ``D(k) − B_k`` to
    each visited server, and stops at the first server with
    ``open_q ≤ p(k)``.  Each visit is one real pivot relationship, so
    the walk work *is* ``P = Σ_i |π(i)|`` (``≈ n`` for Poisson/Zipf
    workloads; perfect round-robin degrades to the reference's
    ``O(mn)`` with a far smaller constant).  Everything else is ``O(1)``
    per request: ``O(n + m + P)`` in all.  Then ``k``'s own server
    reopens its window at ``k`` (the self-candidate seeds its minimum)
    and moves to the list front.
    :class:`~repro.offline.streaming.StreamingSolver` runs the same step
    one append at a time.

    Bit-identity with the reference sweep (asserted by
    ``tests/offline/test_kernels.py``, gated by
    ``benchmarks/bench_dp_kernels.py``):

    * values: minima are order-independent, and ``D(i)``/``C(i)`` use
      the reference's floating-point expressions in the same operand
      order, so ``C``, ``D`` and ``served_by_cache`` are byte-identical;
    * argmins: the reference scans servers ``j = 0..m−1`` taking strict
      improvements, so its winner is the lexicographic minimum of
      ``(value, server)``.  The accumulator breaks value ties toward the
      candidate on the smaller server id, so ``choice_d_tag`` /
      ``choice_d_k``, and hence reconstructed schedules, match too.
    """
    from ..offline.result import FROM_C, FROM_D

    for item in range(layout.num_items):
        sl = layout.item_slice(item)
        n = int(layout.nreq[item])
        m = int(layout.mserv[item])
        org = int(layout.origin[item])
        mu = float(layout.mu[item])
        lam = float(layout.lam[item])
        # Native Python scalars: a numpy scalar subscript costs ~10x a
        # list subscript, which would dominate the per-request budget.
        t = layout.t[sl].tolist()
        srv = layout.srv[sl].tolist()
        p = layout.p[sl].tolist()
        sigma = layout.sigma[sl].tolist()
        B = layout.B[sl].tolist()

        Ci = [0.0] * (n + 1)
        Di = [_INF] * (n + 1)
        si = [False] * (n + 1)
        tags = [-1] * (n + 1)
        args = [-1] * (n + 1)

        open_q = [-1] * m
        run_min = [_INF] * m
        run_arg = [-1] * m
        run_srv = [m] * m
        fwd = [-1] * m
        bwd = [-1] * m
        listed = [False] * m
        head = org
        listed[org] = True
        open_q[org] = 0
        run_arg[org] = 0
        run_srv[org] = org

        t_prev = t[0]
        c_prev = 0.0
        B_prev = 0.0
        for i in range(1, n + 1):
            s = srv[i]
            q = p[i]
            t_i = t[i]
            if q >= 0:
                best = Ci[q] - B[q]
                acc = run_min[s]
                if acc < best:
                    d_i = acc + mu * sigma[i] + B_prev
                    tags[i] = FROM_D
                    args[i] = run_arg[s]
                else:
                    d_i = best + mu * sigma[i] + B_prev
                    tags[i] = FROM_C
                    args[i] = q
                Di[i] = d_i
                via_transfer = c_prev + mu * (t_i - t_prev) + lam
                if d_i <= via_transfer:
                    c_prev = d_i
                    si[i] = True
                else:
                    c_prev = via_transfer
            else:
                d_i = _INF
                c_prev = c_prev + mu * (t_i - t_prev) + lam
            Ci[i] = c_prev
            t_prev = t_i
            B_prev = B[i]
            value = d_i - B_prev
            j = head
            while j >= 0 and open_q[j] > q:
                cur = run_min[j]
                if value < cur or (value == cur and s < run_srv[j]):
                    run_min[j] = value
                    run_arg[j] = i
                    run_srv[j] = s
                j = fwd[j]
            open_q[s] = i
            run_min[s] = value
            run_arg[s] = i
            run_srv[s] = s
            if head != s:
                if listed[s]:
                    nxt, prv = fwd[s], bwd[s]
                    fwd[prv] = nxt
                    if nxt >= 0:
                        bwd[nxt] = prv
                else:
                    listed[s] = True
                fwd[s] = head
                bwd[head] = s
                bwd[s] = -1
                head = s

        C[sl] = Ci
        D[sl] = Di
        served[sl] = si
        tag[sl] = tags
        karg[sl] = args


def _sweep_c(
    layout: BatchLayout,
    C: np.ndarray,
    D: np.ndarray,
    served: np.ndarray,
    tag: np.ndarray,
    karg: np.ndarray,
) -> None:
    items, total = layout.num_items, layout.total
    state = int(layout.mserv.sum())
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
    scratch = [np.empty(state, dtype=dt) for dt in _SCRATCH]
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
    operations: one entry per item in each item column, at least one
    server and the origin among them, row slices that pack ``[0,
    total)`` in order, server arenas inside ``[0, Σ m)``, server ids in
    ``[0, m)`` and predecessors in ``[-1, local index)``.
    """
    items, total = layout.num_items, layout.total
    col = {name: np.asarray(getattr(layout, name)) for name, _ in _ITEM_COLUMNS}
    for name, arr in col.items():
        if arr.shape != (items,):
            raise ValueError(
                f"layout column {name!r} has shape {arr.shape}; "
                f"need ({items},), one entry per item"
            )
    srv, p = np.asarray(layout.srv)[:total], np.asarray(layout.p)[:total]
    for name, arr in (("srv", srv), ("p", p)):
        if arr.shape != (total,):
            raise ValueError(f"layout column {name!r} needs {total} entries")
    if items == 0:
        return

    def refuse(ok: np.ndarray, what: str) -> None:
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            raise ValueError(f"layout item {layout.names[k]!r}: {what}")

    off, nreq, mserv, origin, soff = (
        col[name] for name in ("off", "nreq", "mserv", "origin", "soff")
    )
    refuse((mserv >= 1) & (origin >= 0) & (origin < mserv), "origin outside [0, m)")
    refuse((nreq >= 0) & (nreq < total), f"request count outside [0, {total})")
    starts = _starts(nreq + 1)
    if int(nreq.sum()) + items != total or not np.array_equal(off, starts):
        raise ValueError(f"layout row slices do not pack [0, {total}) in order")
    state = mserv.sum()
    refuse(
        (soff >= 0) & (soff <= state - mserv), f"server arena outside [0, {state})"
    )
    # The slices pack the rows in order, so reduceat at their starts
    # gives per-item extremes.  p(i) < i - off[k] iff p(i) - i < -off[k].
    refuse(
        (np.minimum.reduceat(srv, starts) >= 0)
        & (np.maximum.reduceat(srv, starts) < mserv),
        "server id outside [0, m)",
    )
    refuse(
        (np.minimum.reduceat(p, starts) >= -1)
        & (np.maximum.reduceat(p - np.arange(total), starts) < -starts),
        "predecessor outside [-1, local index)",
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
        Item name → pre-scanned instance (a
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
