"""Bootstrap CI tests."""

import numpy as np
import pytest

from repro.analysis import bootstrap_ci, bootstrap_mean_ratio
from repro.online import SpeculativeCaching
from repro.workloads import poisson_zipf_instance


def _workload(seed):
    return poisson_zipf_instance(40, 4, rate=1.0, rng=seed)


def _sc():
    return SpeculativeCaching()


class TestBootstrapCI:
    def test_contains_point_estimate(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0, 4.0])
        assert ci.lo <= ci.estimate <= ci.hi
        assert ci.estimate == pytest.approx(2.5)

    def test_degenerate_sample_collapses(self):
        ci = bootstrap_ci([5.0] * 10)
        assert ci.lo == ci.hi == ci.estimate == 5.0

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(0)
        small = bootstrap_ci(rng.normal(0, 1, 10), rng=np.random.default_rng(1))
        large = bootstrap_ci(rng.normal(0, 1, 400), rng=np.random.default_rng(1))
        assert (large.hi - large.lo) < (small.hi - small.lo)

    def test_custom_statistic(self):
        ci = bootstrap_ci([1.0, 2.0, 100.0], statistic=np.median)
        assert ci.estimate == pytest.approx(2.0)

    def test_contains_operator(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0])
        assert ci.estimate in ci
        assert 1e9 not in ci

    def test_str_format(self):
        assert "@95%" in str(bootstrap_ci([1.0, 2.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)

    def test_deterministic_default_rng(self):
        a = bootstrap_ci([1.0, 5.0, 2.0, 8.0])
        b = bootstrap_ci([1.0, 5.0, 2.0, 8.0])
        assert (a.lo, a.hi) == (b.lo, b.hi)


class TestBootstrapMeanRatio:
    def test_interval_brackets_known_regime(self):
        ci = bootstrap_mean_ratio(_workload, range(8), _sc)
        assert 1.0 <= ci.lo <= ci.estimate <= ci.hi <= 3.0
