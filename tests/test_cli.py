"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.spec import all_specs, registered_ids


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-experiment", "E99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "rumor"
        assert args.nodes == 2000
        assert args.opinions == 3
        assert args.epsilon == pytest.approx(0.3)
        assert args.engine == "auto"
        assert args.trials == 32
        assert args.max_rounds == 300

    def test_simulate_plurality_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--workload", "plurality", "--nodes", "500",
             "--support", "100", "--bias", "0.3"]
        )
        assert args.support == 100
        assert args.bias == pytest.approx(0.3)

    def test_simulate_rejects_unknown_rule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--rule", "bogus"])

    @pytest.mark.parametrize(
        "command", ["rumor", "plurality", "ensemble", "dynamics"]
    )
    def test_legacy_subcommands_are_gone(self, capsys, command):
        with pytest.raises(SystemExit) as raised:
            main([command, "--nodes", "50"])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_h_majority_requires_sample_size(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "dynamics", "--rule", "h-majority",
                  "--nodes", "50"])
        assert "requires sample_size" in capsys.readouterr().err

    def test_sample_size_rejected_for_other_rules(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "dynamics", "--rule", "voter",
                  "--sample-size", "3"])
        assert "does not take a sample_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "run-experiment"])
    def test_engine_choices_are_uniform_across_subcommands(self, command):
        """Every trial-running subcommand accepts the same engine names."""
        prefix = [command, "E12"] if command == "run-experiment" else [command]
        for engine in ("batched", "sequential", "counts", "auto"):
            args = build_parser().parse_args(prefix + ["--engine", engine])
            assert args.engine == engine
        with pytest.raises(SystemExit):
            build_parser().parse_args(prefix + ["--engine", "bogus"])

    @pytest.mark.parametrize("command", ["simulate", "sweep", "run-experiment"])
    def test_counts_threshold_accepted_with_auto(self, command):
        prefix = [command, "E12"] if command == "run-experiment" else [command]
        args = build_parser().parse_args(
            prefix + ["--engine", "auto", "--counts-threshold", "1234"]
        )
        assert args.counts_threshold == 1234

    def test_counts_threshold_requires_auto(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--engine", "counts", "--counts-threshold", "5"])
        assert "only applies to --engine auto" in capsys.readouterr().err

    def test_counts_threshold_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--engine", "auto", "--counts-threshold", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_counts_threshold_requires_auto_on_run_experiment_too(
        self, capsys
    ):
        with pytest.raises(SystemExit):
            main(["run-experiment", "E11", "--counts-threshold", "10"])
        assert "only applies to --engine auto" in capsys.readouterr().err

    def test_intractable_sample_size_on_auto_degrades_to_batched(self, capsys):
        """--engine auto degrades an intractable counts h-majority to the
        batched tier instead of failing (an explicit --engine counts is a
        parser error, see TestSimulateCommand)."""
        exit_code = main(
            [
                "simulate",
                "--workload", "dynamics",
                "--rule", "h-majority",
                "--sample-size", "256",
                "--engine", "auto",
                "--counts-threshold", "100",
                "--nodes", "200",
                "--trials", "2",
                "--max-rounds", "5",
                "--epsilon", "0.6",
                "--bias", "0.3",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code in (0, 1)
        assert "engine                : batched" in captured.out
        assert "engine degraded       : " in captured.out


class TestSimulateCommand:
    def test_simulate_rumor_batched(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--workload", "rumor",
                "--nodes", "500",
                "--opinions", "3",
                "--epsilon", "0.35",
                "--trials", "4",
                "--engine", "batched",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "workload              : rumor" in captured.out
        assert "engine                : batched" in captured.out
        assert "success rate          : 1.0000" in captured.out

    def test_simulate_dynamics_counts(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--workload", "dynamics",
                "--rule", "3-majority",
                "--nodes", "500",
                "--epsilon", "0.66",
                "--bias", "0.3",
                "--trials", "4",
                "--max-rounds", "200",
                "--engine", "counts",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "workload              : dynamics" in captured.out
        assert "engine                : counts" in captured.out

    def test_simulate_json_output_is_a_simulation_result(self, capsys):
        import json as json_module

        exit_code = main(
            [
                "simulate",
                "--workload", "plurality",
                "--nodes", "400",
                "--support", "150",
                "--bias", "0.4",
                "--epsilon", "0.35",
                "--trials", "2",
                "--engine", "counts",
                "--seed", "0",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code in (0, 1)
        document = json_module.loads(captured.out)
        assert document["workload"] == "plurality"
        assert document["engine"] == "counts"
        assert len(document["successes"]) == 2
        assert document["provenance"]["scenario"]["workload"] == "plurality"

    def test_simulate_dynamics_without_rule_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "dynamics", "--nodes", "50"])
        assert "requires rule" in capsys.readouterr().err

    def test_simulate_counts_rejects_ablation_free_error(self, capsys):
        # Scenario validation surfaces as a parser error naming the
        # engines that do support the request.
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--workload", "dynamics",
                    "--rule", "h-majority",
                    "--sample-size", "256",
                    "--engine", "counts",
                    "--nodes", "100",
                ]
            )
        assert "maj() table budget" in capsys.readouterr().err

    def test_simulate_analytic_past_the_budgets_names_counts(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["simulate", "--workload", "rumor", "--nodes", "100000",
                  "--engine", "analytic"])
        assert raised.value.code == 2
        assert "engine='counts'" in capsys.readouterr().err

    def test_simulate_auto_threshold_resolves_to_counts(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--nodes", "500",
                "--epsilon", "0.35",
                "--trials", "2",
                "--engine", "auto",
                "--counts-threshold", "100",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code in (0, 1)
        assert "engine                : counts" in captured.out


class TestExperimentRegistry:
    def test_every_experiment_has_a_runnable_spec(self):
        for spec in all_specs():
            assert spec.experiment_id.startswith("E")
            assert callable(spec.run_fn)
            assert spec.description
            assert spec.supported_engines

    def test_registry_covers_e1_through_e15(self):
        assert registered_ids() == [f"E{index}" for index in range(1, 16)]


class TestCommands:
    def test_list_experiments(self, capsys):
        exit_code = main(["list-experiments"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "E1" in captured.out
        assert "E15" in captured.out

    def test_run_experiment_e11(self, capsys):
        exit_code = main(["run-experiment", "E11", "--seed", "0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[E11]" in captured.out
        assert "total_bits" in captured.out

    def test_run_experiment_e10(self, capsys):
        exit_code = main(["run-experiment", "E10"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[E10]" in captured.out

    def test_simulate_single_sequential_rumor_run(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--nodes", "500",
                "--opinions", "3",
                "--epsilon", "0.35",
                "--trials", "1",
                "--engine", "sequential",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "engine                : sequential" in captured.out
        assert "success rate          : 1.0000" in captured.out

    def test_simulate_dynamics_sequential_engine(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--workload", "dynamics",
                "--rule", "undecided-state",
                "--nodes", "300",
                "--epsilon", "0.6",
                "--bias", "0.4",
                "--trials", "2",
                "--max-rounds", "400",
                "--engine", "sequential",
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        # Exact consensus under residual noise is not guaranteed; the check
        # here is that the sequential engine routing works end to end.
        assert exit_code in (0, 1)
        assert "engine                : sequential" in captured.out
        assert "convergence rate" in captured.out

    def test_run_experiment_engine_override(self, capsys):
        exit_code = main(
            ["run-experiment", "E9", "--seed", "0", "--engine", "counts"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[E9]" in captured.out
        assert "trial engine: counts" in captured.out

    @pytest.mark.parametrize(
        "experiment,engine",
        [
            ("E11", "counts"),   # analytic: sequential only
            ("E14", "batched"),  # per-node graph engines: sequential only
            ("E8", "counts"),    # O/B/P comparison: counts replaces delivery
            ("E8", "auto"),      # auto needs both batched and counts
        ],
    )
    def test_run_experiment_unsupported_engine_rejected_explicitly(
        self, capsys, experiment, engine
    ):
        """Requesting an engine a spec lacks is a hard error naming the
        supported engines — never a silent ignore."""
        with pytest.raises(SystemExit):
            main(["run-experiment", experiment, "--engine", engine])
        err = capsys.readouterr().err
        assert f"experiment {experiment} does not support" in err
        assert "supported engines" in err
        assert "sequential" in err

    def test_run_experiment_sequential_accepted_by_analytic_specs(
        self, capsys
    ):
        # E11 runs no repeated trials; 'sequential' (the plain-Python
        # execution it always uses) is accepted as a no-op override.
        exit_code = main(
            ["run-experiment", "E11", "--engine", "sequential"]
        )
        assert exit_code == 0
        assert "[E11]" in capsys.readouterr().out


class TestRunAllCommand:
    FAST = ["E5", "E10", "E11"]

    def test_run_all_parallel_then_resume_all_cached(self, capsys, tmp_path):
        store = str(tmp_path / "results")
        exit_code = main(
            ["run-all", *self.FAST, "--jobs", "2", "--out", store]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "3 ran, 0 cached, 0 skipped" in captured.out

        exit_code = main(
            ["run-all", *self.FAST, "--out", store, "--resume"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 ran, 3 cached, 0 skipped" in captured.out

    def test_run_all_lists_cache_status_in_list_experiments(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "results")
        main(["run-all", "E11", "--out", store])
        capsys.readouterr()
        main(["list-experiments", "--out", store])
        lines = capsys.readouterr().out.splitlines()
        e11 = [line for line in lines if line.startswith("E11")][0]
        assert "[cached]" in e11
        e10 = [line for line in lines if line.startswith("E10")][0]
        assert "[cached]" not in e10

    def test_run_all_skips_unsupported_engine(self, capsys, tmp_path):
        exit_code = main(
            [
                "run-all", "E10", "E11",
                "--engine", "counts",
                "--out", str(tmp_path / "results"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 ran, 0 cached, 2 skipped" in captured.out
        assert "unsupported" in captured.out

    def test_run_all_print_tables(self, capsys, tmp_path):
        exit_code = main(
            [
                "run-all", "E11",
                "--out", str(tmp_path / "results"),
                "--print-tables",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[E11]" in captured.out

    def test_run_all_rejects_unknown_experiment(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["run-all", "E42", "--out", str(tmp_path / "results")])
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_all_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-all", "E11", "--out", "none", "--resume"])
        assert "requires a result store" in capsys.readouterr().err
