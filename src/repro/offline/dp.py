"""The fast optimal off-line algorithm — ``O(mn)`` time and space.

Implements the paper's Section IV recurrences:

.. math::

    C(i) &= \\min\\{ D(i),\\ C(i-1) + \\mu\\,\\delta t_{i-1,i} + \\lambda \\} \\\\
    D(i) &= \\min\\Big\\{ C(p(i)) + \\mu\\sigma_i + B_{i-1} - B_{p(i)},\\
            \\min_{\\kappa \\in \\pi(i)} D(\\kappa) + \\mu\\sigma_i
            + B_{i-1} - B_\\kappa \\Big\\}

with ``C(0) = 0`` and ``D(i) = +inf`` for the first request on each server
(its dummy predecessor sits at ``-inf``).  The cover index set ``π(i)``
(Definition 8) holds at most one candidate per server — the request whose
server interval spans ``t_{p(i)}`` — and the reference sweep reads it in
``O(m)`` from the pointer matrix of the paper's Fig. 5, so the whole sweep
is ``O(mn)``.

Ties between the cache branch ``D(i)`` and the transfer branch are broken
toward the cache branch; this guarantees reconstruction never emits a
self-transfer (when ``s_i = s_{i-1}`` the cache branch is strictly cheaper
by ``λ``, so the transfer branch can only win when the servers differ).
"""

from __future__ import annotations

import numpy as np

from ..core.instance import ProblemInstance
from ..kernels.batch import BatchLayout, _solve, _sweep_python, solve_layout
from ..kernels.prescan import build_pivot_matrix
from .result import FROM_C, FROM_D, OfflineResult

__all__ = ["solve_offline", "optimal_cost", "KERNELS"]

#: Valid ``kernel=`` values for :func:`solve_offline`.
KERNELS = ("auto", "frontier", "reference")


def solve_offline(instance: ProblemInstance, kernel: str = "auto") -> OfflineResult:
    """Solve ``instance`` optimally with the ``O(mn)`` dynamic program.

    Parameters
    ----------
    instance:
        Pre-scanned problem instance.
    kernel:
        ``"auto"`` (default) runs the batched DP sweep
        (:mod:`repro.kernels.batch`) on a one-item layout, on the backend
        :func:`~repro.kernels.batch.batch_sweep_backend` names: the
        compiled sweep when it builds, its Python spec otherwise.
        ``"frontier"`` pins that Python spec, the per-item ``O(n + m + P)``
        frontier loop, whatever ``REPRO_BATCH_SWEEP`` says.
        ``"reference"`` runs the paper-shaped per-request sweep over the
        pointer matrix, kept as the oracle the fast sweeps are tested
        against.  Every kernel returns byte-identical results.

    Returns
    -------
    OfflineResult
        Cost vectors ``C``/``D`` plus backtracking metadata;
        ``result.schedule()`` materialises the optimal schedule.  Under
        ``"auto"`` and ``"frontier"`` the arrays are read-only views.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )
    if kernel == "reference":
        return _solve_reference(instance)
    layout = BatchLayout.from_instances([("", instance)])
    if kernel == "frontier":
        (res,) = _solve(layout, _sweep_python)
    else:
        (res,) = solve_layout(layout)
    res.instance = instance
    res.solver = "fast-dp"
    return res


def _solve_reference(instance: ProblemInstance) -> OfflineResult:
    """The per-request ``O(mn)`` sweep of Section IV."""
    n = instance.n
    t = instance.t
    p, sigma, B = instance.p, instance.sigma, instance.B
    mu, lam = instance.cost.mu, instance.cost.lam

    C = np.zeros(n + 1, dtype=np.float64)
    D = np.full(n + 1, np.inf, dtype=np.float64)
    served_by_cache = np.zeros(n + 1, dtype=bool)
    choice_d_tag = np.full(n + 1, -1, dtype=np.int64)
    choice_d_k = np.full(n + 1, -1, dtype=np.int64)

    # F[q, j] = first request at or after index q on server j (Fig. 5).
    # Row F[p(i)] holds one candidate per server; those below i form π(i).
    F = build_pivot_matrix(instance.srv, instance.num_servers)

    for i in range(1, n + 1):
        q = int(p[i])
        if q >= 0:
            # Boundary case of Recurrence (5): extend from C(p(i)).
            best = C[q] - B[q]
            tag, arg = FROM_C, q
            # Pivot cases: κ ∈ π(i), one candidate per server.
            for k in F[q].tolist():
                if 0 <= k < i:
                    v = D[k] - B[k]
                    if v < best:
                        best, tag, arg = v, FROM_D, k
            D[i] = best + mu * sigma[i] + B[i - 1]
            choice_d_tag[i] = tag
            choice_d_k[i] = arg
        via_transfer = C[i - 1] + mu * (t[i] - t[i - 1]) + lam
        if D[i] <= via_transfer:
            C[i] = D[i]
            served_by_cache[i] = True
        else:
            C[i] = via_transfer

    return OfflineResult(
        instance=instance,
        C=C,
        D=D,
        served_by_cache=served_by_cache,
        choice_d_tag=choice_d_tag,
        choice_d_k=choice_d_k,
        solver="fast-dp",
    )


def optimal_cost(instance: ProblemInstance) -> float:
    """Convenience wrapper: the optimal total service cost ``C(n)``."""
    return solve_offline(instance).optimal_cost
