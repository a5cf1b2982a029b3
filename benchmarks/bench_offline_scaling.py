"""Experiment C1 — the O(mn) speed-up claim (Contribution 1).

The paper claims its DP is ``O(m log m)×`` faster than Veeravalli's
``O(n m² log m)`` algorithm.  That algorithm is not published in a
reproducible form (DESIGN.md, Substitutions), so the comparison is run
against the two in-repo reference solvers that bracket it:

* naive ``O(n²)`` sweep (the "straightforward implementation" the paper
  itself names), and
* binary-search pivots, ``O(n m log n)``.

All solvers produce bit-identical cost vectors (asserted), so the timing
series measures pure algorithmic speed-up.  The shape to check: the fast
DP's advantage over the naive sweep grows linearly in ``n`` and its
advantage over the bisect variant grows with ``log n`` — i.e. who wins
never changes, and the gap widens exactly as the complexity classes say.

The speed-ups and the widening-gap assertions time
``kernel="frontier"``, the ``O(n + m + P)`` frontier loop in Python, so
every compared solver is the same language and the gaps stay
algorithm-vs-algorithm.  The production ``solve_offline(inst)``
(``kernel="auto"``: the batched sweep on a one-item layout, compiled C
when it builds) is recorded beside them, as is the paper-shaped
``kernel="reference"`` sweep (the deeper kernel grid lives in
``bench_dp_kernels.py`` / ``BENCH_dp_kernels.json``).
"""

import time

import pytest

from repro import solve_offline, solve_offline_bisect, solve_offline_naive
from repro.analysis import format_table
from repro.workloads import poisson_zipf_instance

from _util import emit


def _time(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def test_scaling_in_n(benchmark):
    rows = []
    for n in (200, 500, 1000, 2000):
        inst = poisson_zipf_instance(n, 16, rate=1.0, zipf_s=1.0, rng=0)
        fast = solve_offline(inst, kernel="frontier")
        assert fast.agrees_with(solve_offline(inst))
        assert fast.agrees_with(solve_offline(inst, kernel="reference"))
        assert fast.agrees_with(solve_offline_naive(inst))
        assert fast.agrees_with(solve_offline_bisect(inst))
        t_fast = min(
            _time(solve_offline, inst, kernel="frontier") for _ in range(3)
        )
        t_auto = min(_time(solve_offline, inst) for _ in range(3))
        t_ref = min(
            _time(solve_offline, inst, kernel="reference") for _ in range(3)
        )
        t_bis = min(_time(solve_offline_bisect, inst) for _ in range(3))
        t_naive = _time(solve_offline_naive, inst)
        rows.append(
            {
                "n": n,
                "frontier [s]": t_fast,
                "auto [s]": t_auto,
                "reference O(mn) [s]": t_ref,
                "bisect O(nm log n) [s]": t_bis,
                "naive O(n^2) [s]": t_naive,
                "speedup vs naive": t_naive / t_fast,
            }
        )
    emit(
        "offline_scaling_n",
        format_table(rows, precision=4),
        header="C1: scaling in n at m=16 (identical outputs asserted; "
        "speed-up = Python frontier loop; auto = production solve_offline)",
    )
    # The asymptotic gap must widen with n.
    assert rows[-1]["speedup vs naive"] > rows[0]["speedup vs naive"]

    inst = poisson_zipf_instance(1000, 16, rng=0)
    benchmark(solve_offline, inst)


def test_scaling_in_m(benchmark):
    rows = []
    for m in (4, 16, 64, 256):
        inst = poisson_zipf_instance(800, m, rate=1.0, zipf_s=0.8, rng=1)
        fast = solve_offline(inst, kernel="frontier")
        assert fast.agrees_with(solve_offline(inst))
        assert fast.agrees_with(solve_offline(inst, kernel="reference"))
        assert fast.agrees_with(solve_offline_bisect(inst))
        t_fast = min(
            _time(solve_offline, inst, kernel="frontier") for _ in range(3)
        )
        t_auto = min(_time(solve_offline, inst) for _ in range(3))
        t_ref = min(
            _time(solve_offline, inst, kernel="reference") for _ in range(3)
        )
        t_bis = min(_time(solve_offline_bisect, inst) for _ in range(3))
        rows.append(
            {
                "m": m,
                "frontier [s]": t_fast,
                "auto [s]": t_auto,
                "reference O(mn) [s]": t_ref,
                "bisect O(nm log n) [s]": t_bis,
                "ratio": t_bis / t_fast,
            }
        )
    emit(
        "offline_scaling_m",
        format_table(rows, precision=4),
        header="C1: scaling in m at n=800 "
        "(ratio = bisect / Python frontier loop; auto = production "
        "solve_offline)",
    )
    # The fast solver must never lose to the log-factor variant at scale.
    assert rows[-1]["ratio"] >= 1.0

    inst = poisson_zipf_instance(800, 64, rate=1.0, zipf_s=0.8, rng=1)
    benchmark(solve_offline, inst)


def test_fast_dp_headline_kernel(benchmark):
    inst = poisson_zipf_instance(5000, 32, rate=1.0, rng=2)
    res = benchmark(solve_offline, inst)
    assert res.optimal_cost > 0
