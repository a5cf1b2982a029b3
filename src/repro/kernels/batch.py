"""Batched instance-major DP kernel — one sweep over many items.

The service layer's steady state is thousands of *small* solves: the
multi-item benchmark spends its serial wall clock on per-item Python
orchestration (one ``solve_offline`` call, one instance rebuild, one
result object per item), not on DP arithmetic.  This module removes the
per-item overhead by packing a whole batch into one array program:

* :class:`BatchLayout` — the concatenated ``t``/``srv``/``p``/``sigma``/
  ``B`` request columns of every item laid back to back (instance-major,
  each column slice contiguous), plus per-item offset/size/cost vectors
  and a stacked per-server accumulator arena.  Ragged batches need no
  padding: item ``k`` owns ``[off[k], off[k] + n_k + 1)`` of every
  column (index ``off[k]`` is its boundary request ``r_0``) and
  ``[soff[k], soff[k] + m_k)`` of the server-state arena.
* :func:`solve_offline_batch` — one kernel call that sweeps every item
  and splits the stacked outputs back into per-item
  :class:`~repro.offline.result.OfflineResult` views, keyed in input
  order.

The sweep itself is the frontier kernel's loop (same recurrences, same
move-to-front pivot accumulator, same ``(value, server-id)`` tie-break)
run once per item over the packed columns.  Two interchangeable
backends execute it:

``"c"``
    ``_batch_sweep.c`` compiled on demand with the system C compiler
    (``$CC``/``cc``/``gcc``/``clang``; ``-O2 -fPIC -shared
    -ffp-contract=off``, no fast-math) into a per-user cache directory
    (``$REPRO_KERNEL_CACHE`` or ``$TMPDIR/repro-kernels-<uid>``, keyed
    by source hash) and loaded via :mod:`ctypes`.  ``-ffp-contract=off``
    forbids fused multiply-adds, so every expression rounds exactly
    like its Python twin.
``"python"``
    A pure-Python transliteration of the same loop — the executable
    specification, and the automatic fallback when no compiler exists.

Both backends are bit-identical to per-item ``kernel="frontier"`` on
every result field including tie-breaks; the differential suite
(``tests/offline/test_batch_kernel.py``) and the benchmark gates
(``benchmarks/bench_dp_kernels.py``) assert exactly that.  The
``REPRO_BATCH_SWEEP`` environment variable (``"c"`` / ``"python"``)
pins a backend for debugging and CI matrix runs.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> kernels)
    from ..core.instance import ProblemInstance
    from ..offline.result import OfflineResult

__all__ = [
    "BatchLayout",
    "ColumnEntry",
    "solve_offline_batch",
    "solve_layout",
    "batch_sweep_backend",
    "BATCH_SWEEPS",
]

_INF = math.inf

#: Valid sweep-backend selectors for the batch kernel.  ``"auto"`` picks
#: the compiled sweep when available and falls back to the Python twin;
#: ``"c"`` / ``"python"`` pin a backend (``"c"`` raises if no compiler or
#: load failure).
BATCH_SWEEPS = ("auto", "c", "python")

#: Raw-column batch entry, the instance-free construction path:
#: ``(name, times, servers, num_servers, mu, lam, origin, start_time)``
#: with ``times``/``servers`` excluding the boundary request ``r_0``
#: (the columns the trace samplers carve out of a columnar trace).
ColumnEntry = Tuple[str, np.ndarray, np.ndarray, int, float, float, int, float]


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
    def from_columns(cls, entries: Sequence[ColumnEntry]) -> "BatchLayout":
        """Pack raw request columns, running ONE pre-scan for the batch.

        This is the trace samplers' path: entries arrive as raw
        ``times``/``servers`` arrays cut from the mapped columns, and
        the whole batch is validated and pre-scanned with whole-array
        numpy primitives — one stable ``lexsort`` groups every item's
        requests by server at once (the concatenated twin of
        :func:`repro.kernels.prescan.prev_same_server`), ``sigma``/``b``
        are elementwise, and ``B`` is a per-item ``cumsum`` (per-item on
        purpose: a segmented global scan would change float summation
        order and break bit-identity with instance construction).
        """
        from ..core.types import InvalidInstanceError

        if not entries:
            raise ValueError("need at least one item to build a batch")
        names: List[str] = []
        t_parts: List[np.ndarray] = []
        srv_parts: List[np.ndarray] = []
        n1_list: List[int] = []
        for name, times, servers, m, mu, lam, origin, start in entries:
            times = np.ascontiguousarray(times, dtype=np.float64)
            servers = np.ascontiguousarray(servers, dtype=np.int64)
            if times.ndim != 1 or times.shape != servers.shape:
                raise InvalidInstanceError(
                    f"item {name!r}: times and servers must be equal-length "
                    f"1-D arrays, got {times.shape} vs {servers.shape}"
                )
            names.append(name)
            t_parts.append(np.asarray([start], dtype=np.float64))
            t_parts.append(times)
            srv_parts.append(np.asarray([origin], dtype=np.int64))
            srv_parts.append(servers)
            n1_list.append(times.shape[0] + 1)
        n1 = np.asarray(n1_list, dtype=np.int64)
        off = _starts(n1)
        mserv = np.asarray([e[3] for e in entries], dtype=np.int64)
        origin = np.asarray([e[6] for e in entries], dtype=np.int64)
        mu = np.asarray([e[4] for e in entries], dtype=np.float64)
        lam = np.asarray([e[5] for e in entries], dtype=np.float64)
        t_all = np.concatenate(t_parts)
        srv_all = np.concatenate(srv_parts)
        total = t_all.shape[0]
        item_id = np.repeat(np.arange(len(n1), dtype=np.int64), n1)

        # Validation — the vectorized twin of ProblemInstance._init_arrays.
        if np.any(mserv < 1):
            k = int(np.flatnonzero(mserv < 1)[0])
            raise InvalidInstanceError(
                f"item {names[k]!r}: need at least one server, "
                f"got m={int(mserv[k])}"
            )
        if np.any((origin < 0) | (origin >= mserv)):
            k = int(np.flatnonzero((origin < 0) | (origin >= mserv))[0])
            raise InvalidInstanceError(
                f"item {names[k]!r}: origin {int(origin[k])} outside "
                f"[0, {int(mserv[k])})"
            )
        srv_bad = (srv_all < 0) | (srv_all >= mserv[item_id])
        if np.any(srv_bad):
            j = int(np.flatnonzero(srv_bad)[0])
            k = int(item_id[j])
            raise InvalidInstanceError(
                f"item {names[k]!r}: server ids must lie in "
                f"[0, {int(mserv[k])}); got {int(srv_all[j])}"
            )
        if total > 1:
            gaps = np.diff(t_all)
            intra = item_id[1:] == item_id[:-1]  # skip inter-item seams
            bad = (gaps <= 0) & intra
            if np.any(bad):
                j = int(np.flatnonzero(bad)[0])
                k = int(item_id[j])
                raise InvalidInstanceError(
                    f"item {names[k]!r}: request times must be strictly "
                    f"increasing after t_0={t_all[off[k]]}; violation at "
                    f"index {j + 1 - int(off[k])} (t={t_all[j + 1]})"
                )

        # Concatenated pre-scan: one stable lexsort groups by (item,
        # server) while keeping time order inside each group, so
        # consecutive same-group entries are exactly the (predecessor,
        # successor) pairs — the batched prev_same_server.
        p_global = np.full(total, -1, dtype=np.int64)
        if total > 1:
            order = np.lexsort((srv_all, item_id))
            same = (srv_all[order[1:]] == srv_all[order[:-1]]) & (
                item_id[order[1:]] == item_id[order[:-1]]
            )
            p_global[order[1:][same]] = order[:-1][same]
        off_rep = off[item_id]
        p_local = np.where(p_global >= 0, p_global - off_rep, -1)
        with np.errstate(invalid="ignore"):
            sigma = np.where(
                p_global >= 0, t_all - t_all[np.maximum(p_global, 0)], np.inf
            )
        sigma[off] = np.inf
        b = np.minimum(lam[item_id], mu[item_id] * sigma)
        b[off] = 0.0
        # Per-item cumsum (NOT a segmented global scan): same summation
        # order as prescan_arrays, hence bit-identical B columns.
        B = np.empty(total, dtype=np.float64)
        for k in range(len(n1)):
            lo = int(off[k])
            hi = lo + int(n1[k])
            np.cumsum(b[lo:hi], out=B[lo:hi])
        return cls(
            names=tuple(names),
            off=off,
            nreq=n1 - 1,
            soff=_starts(mserv),
            mserv=mserv,
            origin=origin,
            mu=mu,
            lam=lam,
            t=t_all,
            srv=srv_all,
            p=p_local,
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
# hash, load via ctypes.  No third-party build machinery — the container
# bakes in a C compiler (or we fall back to the Python sweep).
# ---------------------------------------------------------------------------

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_batch_sweep.c")

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
    """Compile ``_batch_sweep.c`` into the cache; returns the .so path.

    The artefact name carries the source hash, so editing the C file
    transparently rebuilds and stale caches can never serve old code;
    the ``os.replace`` publish keeps concurrent builders race-free.
    """
    with open(_SOURCE_PATH, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source + repr(_CFLAGS).encode()).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"repro_batch_sweep_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found (tried $CC, cc, gcc, clang); the batch "
            "kernel will use its Python sweep"
        )
    tmp = f"{so_path}.{os.getpid()}.tmp"
    cmd = [cc, *_CFLAGS, _SOURCE_PATH, "-o", tmp, "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise RuntimeError(
            f"batch sweep compile failed ({' '.join(cmd)}):\n{proc.stderr}"
        )
    os.replace(tmp, so_path)  # atomic publish
    return so_path


def _ptr(dtype) -> object:
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")


def _load_sweep_lib():
    """Compile+load the C sweep once per process; None when unavailable."""
    with _lib_lock:
        if _lib_state["loaded"]:
            return _lib_state["lib"]
        try:
            lib = ctypes.CDLL(_compile_sweep())
            fn = lib.repro_batch_sweep
            fn.restype = ctypes.c_int64
            fn.argtypes = [
                ctypes.c_int64,  # n_items
                _ptr(np.int64),  # off
                _ptr(np.int64),  # nreq
                _ptr(np.int64),  # soff
                _ptr(np.int64),  # mserv
                _ptr(np.int64),  # origin
                _ptr(np.float64),  # mu
                _ptr(np.float64),  # lam
                _ptr(np.float64),  # t
                _ptr(np.int64),  # srv
                _ptr(np.int64),  # p
                _ptr(np.float64),  # sigma
                _ptr(np.float64),  # B
                _ptr(np.float64),  # C
                _ptr(np.float64),  # D
                _ptr(np.uint8),  # served
                _ptr(np.int64),  # tag
                _ptr(np.int64),  # karg
                _ptr(np.int64),  # open_q
                _ptr(np.float64),  # run_min
                _ptr(np.int64),  # run_arg
                _ptr(np.int64),  # run_srv
                _ptr(np.int64),  # fwd
                _ptr(np.int64),  # bwd
                _ptr(np.uint8),  # listed
            ]
            _lib_state["lib"] = fn
        except (OSError, RuntimeError) as exc:
            _lib_state["lib"] = None
            _lib_state["error"] = exc
        _lib_state["loaded"] = True
        return _lib_state["lib"]


def batch_sweep_backend() -> str:
    """The backend ``"auto"`` resolves to right now: ``"c"`` / ``"python"``.

    Honours ``REPRO_BATCH_SWEEP``; benchmarks use this to soften the
    speedup gate when only the Python sweep is available.
    """
    forced = os.environ.get("REPRO_BATCH_SWEEP", "").strip().lower()
    if forced in ("c", "python"):
        return forced
    return "c" if _load_sweep_lib() is not None else "python"


def _resolve_backend(kernel: str) -> str:
    if kernel not in BATCH_SWEEPS:
        raise ValueError(
            f"batch sweep kernel must be one of {BATCH_SWEEPS}, "
            f"got {kernel!r}"
        )
    if kernel == "auto":
        return batch_sweep_backend()
    if kernel == "c" and _load_sweep_lib() is None:
        raise RuntimeError(
            f"kernel='c' requested but the compiled sweep is unavailable: "
            f"{_lib_state['error']}"
        )
    return kernel


# ---------------------------------------------------------------------------
# Python backend — the transliterated frontier loop over packed columns.
# Executable specification for the C twin, and the no-compiler fallback.
# ---------------------------------------------------------------------------


def _sweep_python(
    layout: BatchLayout,
    C: np.ndarray,
    D: np.ndarray,
    served: np.ndarray,
    tag: np.ndarray,
    karg: np.ndarray,
) -> None:
    from ..offline.result import FROM_C, FROM_D

    for item in range(layout.num_items):
        sl = layout.item_slice(item)
        n = int(layout.nreq[item])
        m = int(layout.mserv[item])
        org = int(layout.origin[item])
        mu = float(layout.mu[item])
        lam = float(layout.lam[item])
        # Native scalars, exactly like solve_offline_frontier.
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
    fn = _load_sweep_lib()
    state = int(layout.mserv.sum())
    fn(
        layout.num_items,
        np.ascontiguousarray(layout.off),
        np.ascontiguousarray(layout.nreq),
        np.ascontiguousarray(layout.soff),
        np.ascontiguousarray(layout.mserv),
        np.ascontiguousarray(layout.origin),
        np.ascontiguousarray(layout.mu),
        np.ascontiguousarray(layout.lam),
        np.ascontiguousarray(layout.t),
        np.ascontiguousarray(layout.srv),
        np.ascontiguousarray(layout.p),
        np.ascontiguousarray(layout.sigma),
        np.ascontiguousarray(layout.B),
        C,
        D,
        served.view(np.uint8),
        tag,
        karg,
        np.empty(state, dtype=np.int64),
        np.empty(state, dtype=np.float64),
        np.empty(state, dtype=np.int64),
        np.empty(state, dtype=np.int64),
        np.empty(state, dtype=np.int64),
        np.empty(state, dtype=np.int64),
        np.empty(state, dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# Public solve entry points.
# ---------------------------------------------------------------------------


def solve_layout(
    layout: BatchLayout, kernel: str = "auto"
) -> List["OfflineResult"]:
    """Sweep a packed layout; per-item results in layout order.

    Each result's arrays are **read-only views** into the five stacked
    output arrays — zero copies at split time.  ``instance`` is left
    ``None`` (this entry point never sees instances); callers attach
    their own.  Because the arrays are shared views, results must never
    be mutated in place — use ``dataclasses.replace`` to derive
    variants.
    """
    from ..offline.result import OfflineResult

    backend = _resolve_backend(kernel)
    total = layout.total
    C = np.empty(total, dtype=np.float64)
    D = np.empty(total, dtype=np.float64)
    served = np.empty(total, dtype=bool)
    tag = np.empty(total, dtype=np.int64)
    karg = np.empty(total, dtype=np.int64)
    if backend == "c":
        _sweep_c(layout, C, D, served, tag, karg)
    else:
        _sweep_python(layout, C, D, served, tag, karg)
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
    kernel: str = "auto",
) -> Dict[str, "OfflineResult"]:
    """Solve a whole batch of instances with ONE kernel call.

    Parameters
    ----------
    items:
        Item name → pre-scanned instance (a
        :class:`~repro.service.multi.MultiItemInstance`'s ``items``
        dict), or an iterable of ``(name, instance)`` pairs.
    kernel:
        Sweep backend: ``"auto"`` (default; compiled C when available,
        Python otherwise), ``"c"``, or ``"python"``.  Backends are
        bit-identical; the knob is purely throughput/debugging.

    Returns
    -------
    dict
        Name → :class:`~repro.offline.result.OfflineResult` in the input
        order, each bit-identical to
        ``solve_offline(inst, kernel="frontier")`` on every field
        (``C``/``D``/``served_by_cache``/``choice_d_tag``/``choice_d_k``,
        tie-breaks included).  Result arrays are read-only views into
        the batch's stacked outputs; ``instance`` is attached.
    """
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        return {}
    layout = BatchLayout.from_instances(pairs)
    results = solve_layout(layout, kernel=kernel)
    for (_, inst), res in zip(pairs, results):
        res.instance = inst
    return {name: res for (name, _), res in zip(pairs, results)}
