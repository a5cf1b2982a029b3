"""Competitive analysis harness tests."""

import pytest

from repro import solve_offline
from repro.analysis import (
    adversarial_gap_sweep,
    alternating_adversary,
    cyclic_adversary,
    empirical_ratio,
    ratio_statistics,
    ttl_gamma_sweep,
)
from repro.online import AlwaysTransfer, SpeculativeCaching
from repro.workloads import poisson_zipf_instance

from ..offline.test_kernels import BACKENDS, backend


class TestEmpiricalRatio:
    def test_ratio_at_least_one(self):
        inst = poisson_zipf_instance(40, 4, rng=0)
        assert empirical_ratio(inst) >= 1.0 - 1e-9

    def test_custom_algorithm(self):
        inst = poisson_zipf_instance(40, 4, rng=1)
        r = empirical_ratio(inst, AlwaysTransfer())
        assert r >= 1.0 - 1e-9

    def test_sc_bound(self):
        inst = poisson_zipf_instance(60, 5, rng=2)
        assert empirical_ratio(inst) <= 3.0 + 1e-9


class TestRatioStatistics:
    def test_summary_fields(self):
        insts = [poisson_zipf_instance(30, 4, rng=s) for s in range(5)]
        stats = ratio_statistics(insts)
        assert 1.0 - 1e-9 <= stats.mean <= stats.worst <= 3.0 + 1e-9
        assert stats.p95 <= stats.worst + 1e-12
        assert "worst" in repr(stats)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ratio_statistics([])


class TestAdversaries:
    def test_cyclic_shape(self):
        inst = cyclic_adversary(m=4, rounds=3, gap_factor=1.2)
        assert inst.n == 12
        # every request moves to the next server in the cycle
        assert all(inst.srv[i] != inst.srv[i - 1] for i in range(2, inst.n + 1))

    def test_alternating_is_two_server_cycle(self):
        inst = alternating_adversary(rounds=4, gap_factor=1.1)
        assert inst.num_servers == 2 and inst.n == 8

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            cyclic_adversary(1, 3, 1.0)
        with pytest.raises(ValueError):
            cyclic_adversary(3, 0, 1.0)
        with pytest.raises(ValueError):
            cyclic_adversary(3, 3, -1.0)

    def test_gap_sweep_rows(self):
        rows = adversarial_gap_sweep(m=3, rounds=5, gap_factors=[0.5, 1.2])
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"gap_factor", "sc_cost", "opt_cost", "ratio"}
            assert row["ratio"] <= 3.0 + 1e-9

    def test_worst_ratio_where_revisit_period_exceeds_window(self):
        # The painful spot: per-server revisit period (m * gap) just past
        # the speculative window, so every request pays transfer + a full
        # window of dead rent.
        m = 4
        rows = adversarial_gap_sweep(m=m, rounds=10)
        worst = max(rows, key=lambda r: r["ratio"])
        assert worst["gap_factor"] * m > 1.0
        assert worst["ratio"] > 1.5


class TestOptSolveCounts:
    """Pin the 'OPT solved once per instance' contract via a counting stub.

    Every harness entry point routes OPT through the single
    ``_opt_costs`` seam; stubbing it counts both the number of batched
    calls and the number of instances solved, so a regression back to
    per-algorithm (or per-γ) re-solving fails loudly here.
    """

    def _counting_stub(self, monkeypatch):
        from repro.analysis import competitive

        calls = {"batches": 0, "instances": 0}
        real = competitive._opt_costs

        def counting(instances):
            calls["batches"] += 1
            calls["instances"] += len(instances)
            return real(instances)

        monkeypatch.setattr(competitive, "_opt_costs", counting)
        return calls

    def test_ratio_statistics_solves_each_instance_once(self, monkeypatch):
        calls = self._counting_stub(monkeypatch)
        insts = [poisson_zipf_instance(25, 4, rng=s) for s in range(6)]
        ratio_statistics(insts)
        assert calls == {"batches": 1, "instances": 6}

    def test_ratio_grid_reuses_opt_across_algorithms(self, monkeypatch):
        from repro.analysis import ratio_grid
        from repro.online import NeverDelete, SpeculativeCaching

        calls = self._counting_stub(monkeypatch)
        insts = [poisson_zipf_instance(25, 4, rng=s) for s in range(5)]
        grid = ratio_grid(
            insts,
            {
                "sc": SpeculativeCaching,
                "always-transfer": AlwaysTransfer,
                "never-delete": NeverDelete,
            },
        )
        # Three algorithms over five instances: OPT still solved 5 times.
        assert calls == {"batches": 1, "instances": 5}
        assert set(grid) == {"sc", "always-transfer", "never-delete"}

    def test_gamma_sweep_reuses_opt_across_gammas(self, monkeypatch):
        calls = self._counting_stub(monkeypatch)
        insts = [poisson_zipf_instance(25, 4, rng=s) for s in range(4)]
        rows = ttl_gamma_sweep(insts, gammas=[0.5, 1.0, 2.0, 4.0])
        assert calls == {"batches": 1, "instances": 4}
        assert [r["gamma"] for r in rows] == [0.5, 1.0, 2.0, 4.0]

    def test_gap_sweep_solves_each_factor_once(self, monkeypatch):
        calls = self._counting_stub(monkeypatch)
        adversarial_gap_sweep(m=3, rounds=5, gap_factors=[0.5, 1.0, 1.5])
        assert calls == {"batches": 1, "instances": 3}


class TestKernelIdentity:
    """The batched harness must reproduce the per-event loop exactly,
    on every backend of the compiled kernels."""

    @staticmethod
    def oracle_ratios(insts, algo):
        """Per-event online cost over the reference DP's OPT."""
        return [
            algo.run(inst, kernel="event").cost
            / solve_offline(inst, kernel="reference").optimal_cost
            for inst in insts
        ]

    def test_ratio_statistics_kernels_agree(self):
        insts = [poisson_zipf_instance(30, 4, rng=s) for s in range(5)]
        oracle = self.oracle_ratios(insts, SpeculativeCaching())
        for which in BACKENDS:
            with backend(which):
                assert list(ratio_statistics(insts).ratios) == oracle

    def test_gamma_sweep_kernels_agree(self):
        insts = [poisson_zipf_instance(30, 4, rng=s) for s in range(4)]
        for which in BACKENDS:
            with backend(which):
                rows = ttl_gamma_sweep(insts, gammas=[0.5, 2.0], epoch_size=3)
            assert [row["gamma"] for row in rows] == [0.5, 2.0]
            for row in rows:
                algo = SpeculativeCaching(window_factor=row["gamma"], epoch_size=3)
                assert row["ratios"] == self.oracle_ratios(insts, algo)
