"""Predictability estimator tests (Song et al. motivation)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import batch_sweep_backend
from repro.network import Cluster
from repro.workloads import (
    MarkovMobility,
    empirical_entropy,
    lz_entropy_rate,
    max_predictability,
)
from repro.workloads.predictability import _lpnf, _lpnf_c, _lz_entropy_rate_reference

from ..offline.test_kernels import BACKENDS, backend

needs_c = pytest.mark.skipif(
    batch_sweep_backend() != "c", reason="no C compiler: repro_lpnf cannot run"
)


class TestEntropyEstimators:
    def test_constant_sequence_zero_entropy(self):
        assert lz_entropy_rate([3] * 50) == 0.0
        assert empirical_entropy([3] * 50) == 0.0

    def test_alternating_sequence_low_lz_entropy(self):
        seq = [0, 1] * 100
        lz = lz_entropy_rate(seq)
        zeroth = empirical_entropy(seq)
        assert zeroth == pytest.approx(1.0)
        assert lz < 0.5  # structure detected far below frequency entropy

    def test_random_sequence_near_log2N(self, rng):
        seq = rng.integers(0, 4, size=400).tolist()
        lz = lz_entropy_rate(seq)
        assert 1.0 < lz  # well above any deterministic structure

    def test_short_inputs_degenerate(self):
        assert lz_entropy_rate([1]) == 0.0
        assert lz_entropy_rate([]) == 0.0

    def test_empirical_entropy_uniform(self):
        seq = list(range(8)) * 50
        assert empirical_entropy(seq) == pytest.approx(3.0)


class TestVectorizedBitIdentity:
    """The array entropy estimators must match their scalar twins bit
    for bit — the profiler calls them per item, so the suffix-array and
    bincount forms are the production path and the scalar scans the
    oracle."""

    def test_lz_matches_reference_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(2, 7))
            seq = rng.integers(0, m, size=n)
            assert lz_entropy_rate(seq) == _lz_entropy_rate_reference(seq)

    def test_lz_matches_reference_structured(self):
        cases = [
            [0, 1] * 30,
            [0, 0, 1, 1] * 20,
            list(range(10)) * 8,
            [5] * 10 + [7] * 10,
            [1, 2, 1, 2, 1, 3],
            [0, 1],
            [1, 0, 0, 0, 0, 0],
        ]
        for seq in cases:
            assert lz_entropy_rate(seq) == _lz_entropy_rate_reference(seq)

    def test_empirical_matches_reference(self, rng):
        from repro.workloads.predictability import (
            _empirical_entropy_reference,
        )

        for _ in range(25):
            n = int(rng.integers(1, 200))
            lo = int(rng.integers(-50, 0))
            hi = int(rng.integers(1, 50))
            seq = rng.integers(lo, hi, size=n)
            assert empirical_entropy(seq) == _empirical_entropy_reference(seq)

    def test_empirical_sparse_values_fall_back_to_sort(self):
        from repro.workloads.predictability import (
            _empirical_entropy_reference,
        )

        seq = [0, 10**12, 0, 10**12, 5]  # dense bincount would be absurd
        assert empirical_entropy(seq) == _empirical_entropy_reference(seq)

    def test_lz_accepts_ndarray_and_list(self):
        seq = [0, 1, 0, 1, 1, 0, 2]
        assert lz_entropy_rate(seq) == lz_entropy_rate(np.asarray(seq))

    @pytest.mark.parametrize(
        "dtype", ["int8", "uint8", "int32", "uint32", "int64", "uint64", "float64"]
    )
    def test_lz_reads_every_integer_dtype_like_a_list(self, dtype):
        # Integer arrays are cast in one step, other input goes through
        # int() per symbol; both must read the same values.
        seq = [3, 1, 3, 1, 1, 3, 2, 0, 3, 1]
        assert lz_entropy_rate(np.asarray(seq, dtype=dtype)) == lz_entropy_rate(seq)


def brute_lpnf(seq):
    """``max_{j<i} min(lcp(i, j), i - j)`` straight from its definition."""
    n = len(seq)
    lcp = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(i - 1, -1, -1):
            if seq[i] == seq[j]:
                lcp[i][j] = lcp[i + 1][j + 1] + 1
    return [max((min(lcp[i][j], i - j) for j in range(i)), default=0) for i in range(n)]


@st.composite
def symbol_sequences(draw, max_n=200):
    """Random sequences over 1-16 symbols, and periodic ones: a random
    block repeated, with at most two point mutations."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=16))
    symbol = st.integers(min_value=0, max_value=m - 1)
    if not draw(st.booleans()):
        return draw(st.lists(symbol, min_size=n, max_size=n))
    block = draw(st.lists(symbol, min_size=1, max_size=12))
    seq = (block * (n // len(block) + 1))[:n]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if n else 0):
        seq[draw(st.integers(min_value=0, max_value=n - 1))] = draw(symbol)
    return seq


_SETTINGS = dict(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def lpnfs(seq):
    """``_lpnf`` on ``seq`` and, when the kernels build, ``repro_lpnf``
    (``kernels/_profile.c``: counting-sort suffix array, Kasai LCP,
    chain walks with a binary-lifting fallback)."""
    out = [_lpnf(seq)]
    if "c" in BACKENDS:
        with backend("c"):
            out.append(_lpnf_c(seq))
    return out


class TestSuffixArrayLPnF:
    """The suffix-array longest previous non-overlapping factor behind
    :func:`lz_entropy_rate`, against its definition and the scalar scan."""

    @given(symbol_sequences())
    @settings(**_SETTINGS)
    def test_lpnf_matches_definition(self, seq):
        want = brute_lpnf(seq)
        for got in lpnfs(np.asarray(seq, dtype=np.int64)):
            assert got.dtype == np.int64
            assert got.tolist() == want

    @given(symbol_sequences(max_n=120))
    @settings(**_SETTINGS)
    def test_entropy_rate_matches_scalar_scan(self, seq):
        want = _lz_entropy_rate_reference(seq)
        for name in BACKENDS:
            with backend(name):
                assert lz_entropy_rate(seq) == want

    @needs_c
    @pytest.mark.parametrize("n", [600, 4000])
    @pytest.mark.parametrize("period", [1, 2, 3, 7])
    def test_compiled_lpnf_on_long_periods(self, n, period):
        # Long periodic runs make long chains: the walks hand them to
        # binary lifting, which must land on the same crossings.
        seq = np.resize(np.arange(period), n).astype(np.int64)
        seq[n // 2] = period  # one mutation splits the run
        with backend("c"):
            got = _lpnf_c(seq)
        np.testing.assert_array_equal(got, _lpnf(seq))

    # Λ sums computed with the former O(n²) lag-loop estimator; every Λ
    # is an integer, so the rate must come out exactly.
    @pytest.mark.parametrize(
        "seq, lambda_sum",
        [
            pytest.param(([0, 1, 2] * 1334)[:4000], 4_001_999, id="period-3"),
            pytest.param([int(i == 2000) for i in range(4000)], 3_003_000, id="one-1"),
            pytest.param(
                np.random.default_rng(0).integers(0, 16, 4000), 13_280, id="random-16"
            ),
        ],
    )
    def test_pinned_lambda_sums(self, seq, lambda_sum):
        n = 4000
        assert lz_entropy_rate(seq) == n * math.log2(n) / lambda_sum


class TestMaxPredictability:
    def test_zero_entropy_fully_predictable(self):
        assert max_predictability(0.0, 5) == 1.0

    def test_uniform_entropy_floor(self):
        assert max_predictability(math.log2(6), 6) == pytest.approx(1 / 6)

    def test_monotone_decreasing_in_entropy(self):
        vals = [max_predictability(s, 8) for s in (0.5, 1.0, 2.0, 2.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_fano_equation_satisfied(self):
        N, S = 10, 1.5
        pi = max_predictability(S, N)
        h = -pi * math.log2(pi) - (1 - pi) * math.log2(1 - pi)
        assert h + (1 - pi) * math.log2(N - 1) == pytest.approx(S, abs=1e-6)

    def test_single_symbol_alphabet(self):
        assert max_predictability(0.0, 1) == 1.0


class TestPaperPremise:
    def test_high_locality_trajectories_are_highly_predictable(self):
        # The paper's premise: mobile trajectories are ~93% predictable.
        # A high-locality Markov walker should land in that regime.
        c = Cluster.grid(3, 3)
        mm = MarkovMobility(c, locality=0.93, request_rate=2.0)
        _, servers = mm.user_stream(duration=250.0, start_server=4, rng=0)
        S = lz_entropy_rate(servers.tolist())
        pi = max_predictability(S, c.num_servers)
        assert pi > 0.85

    def test_uniform_hopping_is_unpredictable(self, rng):
        servers = rng.integers(0, 9, size=400).tolist()
        S = lz_entropy_rate(servers)
        pi = max_predictability(S, 9)
        assert pi < 0.6
