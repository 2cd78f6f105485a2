"""Tests for simulate() — registry, auto policy, provenance, JSON."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import numpy as np

import pytest

from repro.core.analytic import AnalyticProtocol
from repro.experiments.orchestrator import ResultStore
from repro.faults import FaultModel
from repro.sim import (
    ENGINE_REGISTRY,
    Scenario,
    ScenarioError,
    ScenarioGrid,
    SimulationResult,
    sim_code_version,
    simulate,
    simulate_sweep,
)

SEED = 13
TRIALS = 4


def protocol_scenario(workload: str, engine: str) -> Scenario:
    knobs = dict(
        workload=workload,
        num_nodes=300,
        num_opinions=3,
        epsilon=0.35,
        engine=engine,
        num_trials=TRIALS,
        seed=SEED,
    )
    if workload == "plurality":
        knobs.update(support_size=120, bias=0.4)
    return Scenario(**knobs)


def dynamics_scenario(engine: str, **overrides) -> Scenario:
    knobs = dict(
        workload="dynamics",
        rule="3-majority",
        num_nodes=300,
        num_opinions=3,
        epsilon=0.66,
        bias=0.3,
        max_rounds=120,
        engine=engine,
        num_trials=TRIALS,
        seed=SEED,
    )
    knobs.update(overrides)
    return Scenario(**knobs)


class TestRegistry:
    def test_every_workload_engine_pair_is_registered(self):
        pairs = set(ENGINE_REGISTRY.pairs())
        for workload in ("rumor", "plurality", "dynamics"):
            for engine in ("sequential", "batched", "counts"):
                assert (workload, engine) in pairs


class TestAutoPolicy:
    def test_auto_resolves_by_population_size(self):
        small = simulate(
            protocol_scenario("rumor", "auto")
        )
        assert small.engine == "batched"
        assert small.provenance["engine_policy"] == "auto"

        big = simulate(
            Scenario(
                workload="rumor", num_nodes=300, num_opinions=3,
                epsilon=0.35, engine="auto", counts_threshold=300,
                num_trials=TRIALS, seed=SEED,
            )
        )
        assert big.engine == "counts"

    def test_auto_degrades_intractable_counts_h_majority_to_batched(self):
        result = simulate(
            dynamics_scenario(
                "auto",
                rule="h-majority",
                sample_size=256,
                counts_threshold=100,
                max_rounds=5,
                num_nodes=150,
            )
        )
        assert result.engine == "batched"


def analytic_rumor(num_nodes: int, engine: str = "analytic") -> Scenario:
    return Scenario(
        workload="rumor", num_nodes=num_nodes, num_opinions=2, epsilon=0.3,
        round_scale=0.2, engine=engine, num_trials=2, seed=SEED,
    )


class TestAnalyticAnswersExactlyOrRefuses:
    """``engine="analytic"`` past the state or maj() table budget raises a
    ScenarioError naming the counts tier; within both it stays exact."""

    @pytest.mark.parametrize(
        "refused",
        [
            # C(46, 2) = 1,035 count states, past the 1,000-state budget.
            dynamics_scenario(
                "analytic", num_nodes=44, num_opinions=2, epsilon=0.4
            ),
            # 969 states fit, but the final Stage-2 L = 135 is past the
            # closed-form maj() table at k = 3.
            Scenario(
                workload="plurality", num_nodes=16, num_opinions=3,
                epsilon=0.3, engine="analytic", seed=SEED,
            ),
            analytic_rumor(1000),
        ],
        ids=["3-majority-n44", "plurality-k3-n16", "rumor-n1000"],
    )
    def test_scenarios_past_the_budgets_raise_naming_counts(self, refused):
        with pytest.raises(ScenarioError, match="engine='counts'"):
            simulate(refused)

    @pytest.mark.parametrize(
        "exact",
        [
            dynamics_scenario(
                "analytic", num_nodes=43, num_opinions=2, epsilon=0.4
            ),
            Scenario(
                workload="plurality", num_nodes=16, num_opinions=3,
                epsilon=0.5, engine="analytic", seed=SEED,
            ),
        ],
        ids=["3-majority-n43", "plurality-k3-n16-eps0.5"],
    )
    def test_scenarios_within_the_budgets_stay_exact(self, exact):
        assert simulate(exact).analytic_method == "exact"

    def test_sweep_rejects_the_grid_before_any_point_runs(self, monkeypatch):
        calls = []
        run = AnalyticProtocol.run

        def spy(self, *args, **kwargs):
            calls.append(self.num_nodes)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticProtocol, "run", spy)
        grid = ScenarioGrid(analytic_rumor(14), {"num_nodes": (14, 1000)})
        with pytest.raises(ScenarioError, match="engine='counts'"):
            simulate_sweep(grid)
        assert calls == []

    @pytest.mark.parametrize(
        "num_nodes,tier",
        [(14, "analytic"), (1000, "batched"), (10**4, "batched")],
    )
    def test_auto_routing_is_unchanged(self, num_nodes, tier):
        assert simulate(analytic_rumor(num_nodes, "auto")).engine == tier

    @pytest.mark.parametrize("engine", ["analytic", "auto"])
    def test_an_analytic_point_builds_its_schedule_once(
        self, monkeypatch, engine
    ):
        """The engine resolution checks the schedule it hands the runner:
        one build per simulate() call and per sweep point, same result."""
        from repro.core.schedule import ProtocolSchedule

        reference = simulate(analytic_rumor(14, engine))
        built = []
        build = ProtocolSchedule.for_population.__func__

        def counted(cls, *args, **kwargs):
            built.append(args[0])
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(
            ProtocolSchedule, "for_population", classmethod(counted)
        )
        result = simulate(analytic_rumor(14, engine))
        assert built == [14]
        assert result.success_probability == reference.success_probability
        assert np.array_equal(
            result.final_opinion_counts, reference.final_opinion_counts
        )
        built.clear()
        grid = ScenarioGrid(analytic_rumor(14, engine), {"epsilon": (0.3, 0.4)})
        assert simulate_sweep(grid).engines == ["analytic"] * 2
        assert built == [14, 14]


class TestProvenanceAndJson:
    def test_provenance_is_self_describing(self):
        scenario = protocol_scenario("rumor", "batched")
        result = simulate(scenario)
        provenance = result.provenance
        assert provenance["workload"] == "rumor"
        assert provenance["engine"] == "batched"
        assert provenance["seed"] == SEED
        assert provenance["code_version"] == sim_code_version()
        assert provenance["wall_time_seconds"] > 0
        assert Scenario.from_dict(provenance["scenario"]) == scenario

    def test_code_version_hashes_the_module_files_without_inspect(
        self, monkeypatch
    ):
        """The fingerprint is the digest of the 12 modules' source text,
        read from their files (``inspect.getsource`` is not called), and of
        the draw-order version."""
        import hashlib
        import inspect

        from repro.analytic import simplex, verify
        from repro.core import analytic as core_analytic
        from repro.dynamics import analytic as dynamics_analytic
        from repro.faults import delivery, injection, model
        from repro.sim import engines, facade, result, scenario, sweep

        reference = hashlib.sha256()
        for module in (
            scenario, engines, result, facade, sweep, simplex, verify,
            dynamics_analytic, core_analytic, model, injection, delivery,
        ):
            reference.update(inspect.getsource(module).encode())
        reference.update(f"draw-order {facade.DRAW_ORDER_VERSION}".encode())

        def refuse(module):
            raise AssertionError(f"inspect.getsource({module.__name__})")

        monkeypatch.setattr(inspect, "getsource", refuse)
        monkeypatch.setattr(facade, "_code_version", None)
        assert sim_code_version() == reference.hexdigest()[:16]

    def test_counts_runs_expose_vote_law_cache_counters(self):
        result = simulate(protocol_scenario("rumor", "counts"))
        counters = result.provenance["vote_law_cache"]
        assert set(counters) == {
            "table_hits", "table_misses", "table_entries",
            "dense_table_hits", "dense_table_misses", "dense_table_entries",
        }
        # Deltas for this run: every law a protocol run evaluates looks up
        # its dense composition table; Stage 2 never uses the closed form.
        assert all(value >= 0 for value in counters.values())
        assert counters["dense_table_hits"] + counters["dense_table_misses"] > 0
        assert counters["table_hits"] + counters["table_misses"] == 0

    def test_non_counts_runs_have_no_cache_counters(self):
        result = simulate(protocol_scenario("rumor", "batched"))
        assert "vote_law_cache" not in result.provenance
        assert "stage2_vote_paths" not in result.provenance

    def test_counts_runs_name_their_draw_order(self):
        """One stream per point: every counts result, single run or swept,
        says so; the per-node and analytic tiers name no draw order."""
        for scenario in (
            protocol_scenario("plurality", "counts"),
            dynamics_scenario("counts"),
        ):
            assert simulate(scenario).provenance["rng_draw_order"] == "per-point"
        for scenario in (
            protocol_scenario("rumor", "batched"),
            dynamics_scenario("sequential", num_trials=1),
            analytic_rumor(14),
        ):
            assert "rng_draw_order" not in simulate(scenario).provenance

    def test_counts_protocol_runs_record_each_stage2_vote_path(self):
        """A dominated final phase is certified onto the point law; a
        near tie never is."""
        from repro.core.schedule import ProtocolSchedule

        def paths(bias):
            result = simulate(
                Scenario(
                    workload="plurality", num_nodes=10**4, num_opinions=3,
                    epsilon=0.3, bias=bias, engine="counts",
                    num_trials=TRIALS, seed=SEED,
                )
            )
            return result.provenance["stage2_vote_paths"]

        dominated = paths(0.3)
        schedule = ProtocolSchedule.for_population(10**4, 0.3)
        assert len(dominated) == schedule.stage2.num_phases
        assert dominated[-1] == "point"
        assert set(dominated) <= {"table", "dense", "chunk", "point"}
        assert "point" not in paths(0.0)

    def test_counts_runs_record_process_p_whatever_the_scenario_asks(self):
        for process in ("push", "balls_bins", "poisson"):
            scenario = dataclasses.replace(
                protocol_scenario("rumor", "counts"), process=process
            )
            provenance = simulate(scenario).provenance
            assert provenance["delivery_process"] == "poisson"

    def test_per_node_runs_record_the_process_they_simulated(self):
        for engine in ("sequential", "batched"):
            for process in ("push", "balls_bins", "poisson"):
                scenario = dataclasses.replace(
                    protocol_scenario("plurality", engine),
                    process=process, num_trials=2,
                )
                assert simulate(scenario).provenance[
                    "delivery_process"
                ] == process
            # Faults keep process="push" but throw balls into bins.
            faulted = dataclasses.replace(
                protocol_scenario("rumor", engine),
                num_trials=2, faults=FaultModel(kind="crash", fraction=0.1),
            )
            assert simulate(faulted).provenance[
                "delivery_process"
            ] == "balls_bins"
        # A graph topology pushes along its edges whatever process says.
        graph = dataclasses.replace(
            protocol_scenario("rumor", "sequential"), num_trials=1,
            process="poisson", topology="random_regular", degree=8,
        )
        assert simulate(graph).provenance["delivery_process"] == "push"

    def test_dynamics_and_analytic_runs_record_no_delivery_process(self):
        for scenario in (
            dynamics_scenario("counts"),
            dynamics_scenario("batched"),
            dataclasses.replace(
                protocol_scenario("rumor", "analytic"),
                num_nodes=14, num_opinions=2, num_trials=1,
            ),
        ):
            assert "delivery_process" not in simulate(scenario).provenance

    def test_json_round_trip_is_exact(self):
        result = simulate(dynamics_scenario("batched"))
        rebuilt = SimulationResult.from_json(result.to_json())
        np.testing.assert_array_equal(rebuilt.successes, result.successes)
        np.testing.assert_array_equal(rebuilt.converged, result.converged)
        np.testing.assert_array_equal(rebuilt.rounds, result.rounds)
        np.testing.assert_array_equal(
            rebuilt.final_biases, result.final_biases
        )
        np.testing.assert_array_equal(
            rebuilt.final_opinion_counts, result.final_opinion_counts
        )
        np.testing.assert_array_equal(
            rebuilt.trajectories, result.trajectories
        )
        assert rebuilt.provenance == json.loads(result.to_json())["provenance"]

    def test_sequential_dynamics_results_carry_trajectories(self):
        """The sequential tier pads each trial's bias history with its final
        value, like the batched tier's history matrix."""
        result = simulate(dynamics_scenario("sequential"))
        trajectories = result.trajectories
        assert trajectories is not None
        assert trajectories.shape == (TRIALS, result.rounds.max())
        np.testing.assert_array_equal(trajectories[:, -1], result.final_biases)
        for row, rounds in zip(trajectories, result.rounds):
            assert np.all(row[rounds - 1:] == row[-1])
        rebuilt = SimulationResult.from_json(result.to_json())
        np.testing.assert_array_equal(rebuilt.trajectories, trajectories)

    def test_to_json_uses_the_canonical_encoder(self):
        """Every leaf of to_json_dict() must be plain JSON-compatible."""
        result = simulate(protocol_scenario("plurality", "counts"))
        document = result.to_json_dict()
        json.dumps(document)  # would raise on stray numpy scalars

        def assert_plain(value):
            if isinstance(value, dict):
                for entry in value.values():
                    assert_plain(entry)
            elif isinstance(value, list):
                for entry in value:
                    assert_plain(entry)
            else:
                assert value is None or isinstance(
                    value, (bool, int, float, str)
                )
                assert not isinstance(value, np.generic)

        assert_plain(document)


class TestResultStoreStability:
    """Orchestrator ResultStore payloads with facade provenance stay
    content-key stable (the satellite regression)."""

    def test_store_key_survives_json_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        scenario = protocol_scenario("rumor", "counts")
        result = simulate(scenario)
        identity = {
            "kind": "simulation",
            "scenario": scenario.to_dict(),
            "engine": result.engine,
            "code_version": result.provenance["code_version"],
        }
        key = store.key_of(identity)
        # The canonical key must be invariant under JSON normalization —
        # the property that makes resume semantics trustworthy.
        assert key == store.key_of(json.loads(json.dumps(identity)))

        store.store("simulation", identity, result.to_json_dict())
        payload = store.fetch("simulation", identity)
        assert payload is not None
        rebuilt = SimulationResult.from_json(payload)
        np.testing.assert_array_equal(rebuilt.successes, result.successes)
        assert (
            rebuilt.provenance["code_version"]
            == result.provenance["code_version"]
        )
        # Storing the fetched payload again maps to the same artifact.
        assert key == store.key_of(json.loads(json.dumps(identity)))


class TestImport:
    def test_plain_import_emits_no_deprecation_warning(self):
        """`import repro` must stay silent — the CI gate in miniature."""
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro",
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
