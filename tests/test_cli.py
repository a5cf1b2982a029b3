"""CLI tests (exercised in-process through ``repro.cli.main``)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    assert main(["generate", str(path), "-n", "30", "-m", "4", "--seed", "1"]) == 0
    return str(path)


class TestGenerate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["generate", str(out), "-n", "10", "-m", "3"]) == 0
        assert out.exists()
        assert "wrote 10 requests" in capsys.readouterr().out


class TestSolve:
    def test_prints_optimal_cost(self, trace, capsys):
        assert main(["solve", trace]) == 0
        out = capsys.readouterr().out
        assert "optimal cost" in out and "lower bound" in out

    def test_diagram_flag(self, trace, capsys):
        assert main(["solve", trace, "--diagram"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_missing_file_is_error_exit(self, capsys):
        assert main(["solve", "/nonexistent/trace.csv"]) == 2
        assert "error" in capsys.readouterr().err


class TestOnline:
    @pytest.mark.parametrize(
        "policy",
        ["sc", "always-transfer", "never-delete", "randomized-ttl", "predictive"],
    )
    def test_policies_run(self, trace, capsys, policy):
        assert main(["online", trace, "--policy", policy]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_epoch_flag(self, trace, capsys):
        assert main(["online", trace, "--policy", "sc", "--epoch", "3"]) == 0
        assert "epochs" in capsys.readouterr().out


class TestCompare:
    def test_table_lists_all_policies(self, trace, capsys):
        assert main(["compare", trace]) == 0
        out = capsys.readouterr().out
        for name in (
            "off-line optimal",
            "speculative-caching",
            "always-transfer",
            "never-delete",
        ):
            assert name in out


class TestPaper:
    def test_reprints_worked_examples(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "8.9" in out  # Fig 6 optimum
        assert "7.2" in out  # Fig 2 decomposition


class TestExperiment:
    def test_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table1" in out

    def test_run_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "7.2" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSvg:
    def test_writes_svg_file(self, trace, tmp_path, capsys):
        out = tmp_path / "schedule.svg"
        assert main(["svg", trace, str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "wrote" in capsys.readouterr().out


class TestSensitivity:
    def test_prints_table_and_breakpoints(self, trace, capsys):
        assert main(
            ["sensitivity", trace, "--lo", "0.2", "--hi", "4.0", "--points", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal cost" in out
        assert "breakpoint" in out or "no structure change" in out


class TestParser:
    def test_cost_flags_global(self, trace, capsys):
        assert main(["--mu", "2.0", "--lam", "0.5", "solve", trace]) == 0

    def test_parser_builds(self):
        assert build_parser().prog == "repro-cache"

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_kernel_choices(self, trace, capsys):
        (kernel,) = [
            a for a in build_parser()._actions if "--kernel" in a.option_strings
        ]
        assert list(kernel.choices) == ["auto", "frontier", "reference", "event"]
        for choice in kernel.choices:
            assert main(["--kernel", choice, "compare", trace]) == 0
        for removed in ("batch", "vector"):
            with pytest.raises(SystemExit):
                main(["--kernel", removed, "compare", trace])

    def test_literal_choices_match_the_tables_they_name(self):
        # The parser's choices are literals so that building it imports
        # neither the solvers nor the policies; they must still list
        # exactly what the handlers accept.
        from repro.cli import _KERNEL_CHOICES, _POLICY_CHOICES, _policies
        from repro.kernels.online import ONLINE_KERNELS
        from repro.offline.dp import KERNELS

        assert _KERNEL_CHOICES == KERNELS + tuple(
            k for k in ONLINE_KERNELS if k not in KERNELS
        )
        assert _POLICY_CHOICES == tuple(sorted(_policies()))


@pytest.fixture
def item_trace(tmp_path):
    from repro.workloads import TraceRecord, write_trace

    rng = __import__("numpy").random.default_rng(5)
    recs = sorted(
        (
            TraceRecord(
                float(t), int(rng.integers(4)), item=f"it-{int(rng.integers(3))}"
            )
            for t in rng.uniform(0.0, 50.0, size=120)
        ),
        key=lambda r: r.time,
    )
    path = tmp_path / "svc.csv"
    write_trace(recs, path)
    return str(path)


class TestService:
    def test_synthetic_with_policy(self, capsys):
        rc = main(
            [
                "service", "--items", "4", "-n", "120", "-m", "4",
                "--policy", "sc", "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "off-line optimal total" in out
        assert "policy sc: total" in out

    def test_columnar_trace_is_sniffed(self, item_trace, tmp_path, capsys):
        col = str(tmp_path / "svc.col")
        assert main(["convert", item_trace, col]) == 0
        rc = main(["service", col])
        assert rc == 0
        out = capsys.readouterr().out
        assert "off-line optimal total" in out

    def test_csv_and_columnar_totals_agree(self, item_trace, tmp_path, capsys):
        col = str(tmp_path / "svc.col")
        assert main(["convert", item_trace, col]) == 0
        assert main(["service", item_trace]) == 0
        csv_out = capsys.readouterr().out
        assert main(["service", col]) == 0
        col_out = capsys.readouterr().out
        pick = lambda s: [
            ln for ln in s.splitlines() if "off-line optimal total" in ln
        ]
        assert pick(csv_out) == pick(col_out)


class TestConvert:
    def test_reports_rows_and_sizes(self, item_trace, tmp_path, capsys):
        dest = str(tmp_path / "out.col")
        assert main(["convert", item_trace, dest]) == 0
        out = capsys.readouterr().out
        assert "converted 120 rows" in out and "bytes" in out


class TestChaos:
    def test_clean_sweep_exits_zero(self, capsys):
        rc = main(
            ["chaos", "-n", "40", "-m", "4", "--scenarios", "3", "--seed", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out

    def test_kill_runner_flag_reports_equivalence(self, capsys):
        rc = main(
            [
                "chaos", "-n", "40", "-m", "4", "--scenarios", "2",
                "--seed", "7", "--kill-runner",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kill/resume equivalence" in out
        assert "kill-seq" in out

    def test_violation_exits_nonzero_and_names_seed(self, capsys, monkeypatch):
        # Force a failing sweep: the exit-code contract (1 = invariant
        # violation) must hold regardless of how the violation arose.
        from repro.faults import chaos as chaos_mod
        from repro.faults.chaos import ChaosOutcome

        def rigged(inst, plans, factory, **kwargs):
            return [
                ChaosOutcome(
                    seed=plan.seed,
                    result=None,
                    crashes=0,
                    cost=0.0,
                    penalty=0.0,
                    total_cost=0.0,
                    blackouts=0,
                    blackout_time=0.0,
                    dropped=0,
                    reseeds=0,
                    violations=[f"seed {plan.seed}: rigged failure"],
                )
                for plan in plans
            ]

        monkeypatch.setattr(chaos_mod, "run_chaos_suite", rigged)
        rc = main(["chaos", "-n", "20", "-m", "3", "--scenarios", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "INVARIANT VIOLATION" in captured.err
        assert "2/2 scenarios FAILED" in captured.err
        assert "FAIL" in captured.out  # status column in the report


class TestSupervise:
    _args = ["supervise", "-n", "30", "-m", "4", "--seed", "3"]

    def test_complete_run_exits_zero(self, capsys):
        assert main(self._args) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out and "completion 100.0%" in out

    def test_deadline_partial_exits_three(self, tmp_path, capsys):
        j, s = str(tmp_path / "j.jsonl"), str(tmp_path / "s.ckpt")
        rc = main(
            self._args
            + [
                "--crash-rate", "1.0", "--deadline-events", "10",
                "--journal", j, "--snapshot", s,
            ]
        )
        assert rc == 3
        out = capsys.readouterr().out
        assert "PARTIAL" in out and "resume with --resume" in out

    def test_resume_completes_after_partial(self, tmp_path, capsys):
        j, s = str(tmp_path / "j.jsonl"), str(tmp_path / "s.ckpt")
        faulty = self._args + ["--crash-rate", "1.0", "--journal", j, "--snapshot", s]
        assert main(faulty + ["--deadline-events", "10"]) == 3
        assert main(faulty + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out

    def test_resume_requires_both_paths(self, tmp_path, capsys):
        rc = main(self._args + ["--resume", "--journal", str(tmp_path / "j")])
        assert rc == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_faults_require_fault_aware_policy(self, capsys):
        rc = main(self._args + ["--policy", "sc", "--crash-rate", "1.0"])
        assert rc == 2
        assert "not fault-aware" in capsys.readouterr().err
