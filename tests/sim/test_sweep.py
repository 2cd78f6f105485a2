"""Tests for ``ScenarioGrid`` / ``simulate_sweep`` — grids and bitwise parity.

The sweep engine's contract is exact: ``simulate_sweep(grid)`` must return,
point for point, the *bitwise identical* results of the serial reference
loop ``[simulate(s) for s in grid.scenarios()]`` — for every swept axis,
for both counts-tier fusion paths (protocol groups and the merged
heterogeneous dynamics ensemble), and for every fallback tier the grid can
route points to.  The example-based suite here sweeps each axis the ISSUE
names across those tiers; the hypothesis suite pins the grid expansion
algebra (Cartesian product, last-axis-fastest order, flat-index round
trips, seed derivation) under random shapes.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.orchestrator import ResultStore
from repro.sim import Scenario, ScenarioGrid, SweepResult, simulate, simulate_sweep
from repro.sim import facade
from repro.utils.rng import derive_seed

#: Every simulation-output field of SimulationResult (provenance excluded:
#: wall times and sweep bookkeeping legitimately differ between paths).
RESULT_FIELDS = (
    "successes",
    "converged",
    "rounds",
    "final_biases",
    "final_opinion_counts",
    "consensus_opinions",
    "bias_after_stage1",
    "stage1_rounds",
    "trajectories",
    "expected_bias_after_stage1",
)


def assert_results_equal(serial, fused, context: str) -> None:
    """Field-for-field bitwise comparison of two SimulationResults."""
    for name in RESULT_FIELDS:
        left, right = getattr(serial, name), getattr(fused, name)
        if left is None or right is None:
            assert left is None and right is None, f"{context}: {name} None-ness"
            continue
        assert np.array_equal(np.asarray(left), np.asarray(right)), (
            f"{context}: field {name!r} differs from the serial loop"
        )


def assert_sweep_matches_serial(grid: ScenarioGrid) -> SweepResult:
    """Run both paths over ``grid``; assert per-point bitwise equality."""
    serial_results = [simulate(scenario) for scenario in grid.scenarios()]
    sweep = simulate_sweep(grid)
    assert len(sweep) == grid.size == len(serial_results)
    for index, (serial, fused) in enumerate(zip(serial_results, sweep)):
        context = f"point {index} ({grid.point_overrides(index)})"
        assert_results_equal(serial, fused, context)
        # The sweep reports the same resolved engine the serial call used.
        assert sweep.engines[index] == serial.provenance["engine"], context
        for key in ("stage2_vote_paths", "delivery_process"):
            assert fused.provenance.get(key) == serial.provenance.get(
                key
            ), f"{context}: provenance {key!r}"
        assert fused.provenance["sweep"]["grid_index"] == index
        assert not sweep.from_cache[index]
    return sweep


def dynamics_base(**overrides) -> Scenario:
    knobs = dict(
        workload="dynamics",
        rule="voter",
        num_nodes=300,
        num_opinions=2,
        epsilon=0.1,
        bias=0.2,
        engine="counts",
        num_trials=3,
        max_rounds=60,
        seed=13,
    )
    knobs.update(overrides)
    return Scenario(**knobs)


def protocol_base(**overrides) -> Scenario:
    knobs = dict(
        workload="rumor",
        num_nodes=300,
        num_opinions=3,
        epsilon=0.35,
        engine="counts",
        num_trials=3,
        seed=13,
    )
    knobs.update(overrides)
    return Scenario(**knobs)


# --------------------------------------------------------------------- #
# Grid expansion algebra
# --------------------------------------------------------------------- #


class TestScenarioGrid:
    def test_last_axis_varies_fastest(self):
        grid = ScenarioGrid(
            dynamics_base(),
            {"num_nodes": (200, 400), "epsilon": (0.1, 0.2, 0.3)},
        )
        assert grid.axis_names == ("num_nodes", "epsilon")
        assert grid.shape == (2, 3)
        assert grid.size == 6
        assert grid.points() == [
            {"num_nodes": 200, "epsilon": 0.1},
            {"num_nodes": 200, "epsilon": 0.2},
            {"num_nodes": 200, "epsilon": 0.3},
            {"num_nodes": 400, "epsilon": 0.1},
            {"num_nodes": 400, "epsilon": 0.2},
            {"num_nodes": 400, "epsilon": 0.3},
        ]
        assert [grid.point_overrides(i) for i in range(6)] == grid.points()

    def test_scenarios_apply_overrides_and_derive_seeds(self):
        grid = ScenarioGrid(dynamics_base(seed=99), {"epsilon": (0.1, 0.25)})
        for index, scenario in enumerate(grid.scenarios()):
            assert scenario.epsilon == grid.point_overrides(index)["epsilon"]
            assert scenario.seed == derive_seed(99, index)
            assert scenario.seed == grid.point_seed(index)
            # Everything not swept stays the base value.
            assert scenario.num_nodes == grid.base.num_nodes
            assert scenario.rule == grid.base.rule

    def test_swept_seed_axis_is_used_verbatim(self):
        seeds = (5, 17, 123)
        grid = ScenarioGrid(dynamics_base(), {"seed": seeds})
        for index, scenario in enumerate(grid.scenarios()):
            assert scenario.seed == seeds[index]
            assert grid.point_seed(index) == seeds[index]

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            ScenarioGrid(dynamics_base(), {"not_a_field": (1, 2)})

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="at least one swept field"):
            ScenarioGrid(dynamics_base(), {})
        with pytest.raises(ValueError, match="has no values"):
            ScenarioGrid(dynamics_base(), {"epsilon": ()})

    def test_index_bounds(self):
        grid = ScenarioGrid(dynamics_base(), {"epsilon": (0.1, 0.2)})
        with pytest.raises(IndexError):
            grid.point_overrides(2)
        with pytest.raises(IndexError):
            grid.point_overrides(-1)

    def test_to_dict_is_json_like(self):
        grid = ScenarioGrid(
            dynamics_base(), {"epsilon": (0.1, 0.2), "num_nodes": (200,)}
        )
        document = grid.to_dict()
        assert document["axes"] == {"epsilon": [0.1, 0.2], "num_nodes": [200]}
        assert document["base"] == grid.base.to_dict()


class TestGridProperties:
    """Hypothesis: expansion algebra under random axis shapes."""

    axes_strategy = st.dictionaries(
        st.sampled_from(["epsilon", "num_nodes", "bias", "max_rounds", "seed"]),
        st.integers(min_value=1, max_value=4),
        min_size=1,
        max_size=4,
    )

    @staticmethod
    def _build(axis_sizes) -> ScenarioGrid:
        values = {
            "epsilon": (0.1, 0.2, 0.3, 0.4),
            "num_nodes": (100, 200, 300, 400),
            "bias": (0.1, 0.15, 0.2, 0.25),
            "max_rounds": (10, 20, 30, 40),
            "seed": (7, 8, 9, 10),
        }
        return ScenarioGrid(
            dynamics_base(),
            {name: values[name][:size] for name, size in axis_sizes.items()},
        )

    @given(axes_strategy)
    @settings(max_examples=60, deadline=None)
    def test_size_is_product_of_extents(self, axis_sizes):
        grid = self._build(axis_sizes)
        assert grid.size == int(np.prod(grid.shape))
        assert len(grid.points()) == grid.size

    @given(axes_strategy)
    @settings(max_examples=60, deadline=None)
    def test_flat_index_round_trips(self, axis_sizes):
        grid = self._build(axis_sizes)
        for index in range(grid.size):
            overrides = grid.point_overrides(index)
            # Recompose the flat index from each axis's value position:
            # last axis fastest, exactly nested-loop order.
            recomposed = 0
            for name in grid.axis_names:
                position = grid.axes[name].index(overrides[name])
                recomposed = recomposed * len(grid.axes[name]) + position
            assert recomposed == index

    @given(axes_strategy)
    @settings(max_examples=60, deadline=None)
    def test_scenarios_round_trip_overrides_and_seeds(self, axis_sizes):
        grid = self._build(axis_sizes)
        scenarios = grid.scenarios()
        assert len(scenarios) == grid.size
        for index, scenario in enumerate(scenarios):
            for name, value in grid.point_overrides(index).items():
                assert getattr(scenario, name) == value
            assert scenario.seed == grid.point_seed(index)
            if "seed" not in grid.axes:
                assert scenario.seed == derive_seed(grid.base.seed, index)


# --------------------------------------------------------------------- #
# Bitwise equivalence: sweep vs. the serial simulate() loop
# --------------------------------------------------------------------- #


class TestDynamicsCountsEquivalence:
    """Every swept axis through the merged heterogeneous counts ensemble."""

    @pytest.mark.parametrize(
        "rule,sample_size",
        [
            ("voter", None),
            ("3-majority", None),
            ("h-majority", 5),
            ("undecided-state", None),
            ("median-rule", None),
            ("approximate-consensus", None),
        ],
    )
    def test_epsilon_axis_per_rule(self, rule, sample_size):
        grid = ScenarioGrid(
            dynamics_base(rule=rule, sample_size=sample_size),
            {"epsilon": (0.05, 0.2, 0.4)},
        )
        assert_sweep_matches_serial(grid)

    def test_rule_axis_mixes_merge_groups(self):
        # One grid spanning every rule family (h-majority aside — scenario
        # validation ties sample_size to that rule alone, so it cannot
        # share an axis with the others): the sweep partitions the grid
        # into per-family merged ensembles and must still match serially.
        grid = ScenarioGrid(
            dynamics_base(),
            {
                "rule": (
                    "voter",
                    "3-majority",
                    "undecided-state",
                    "median-rule",
                    "approximate-consensus",
                )
            },
        )
        assert_sweep_matches_serial(grid)

    def test_sample_size_axis(self):
        grid = ScenarioGrid(
            dynamics_base(rule="h-majority", sample_size=3),
            {"sample_size": (3, 5, 7)},
        )
        assert_sweep_matches_serial(grid)

    def test_num_nodes_and_bias_axes(self):
        grid = ScenarioGrid(
            dynamics_base(),
            {"num_nodes": (200, 400), "bias": (0.1, 0.3)},
        )
        assert_sweep_matches_serial(grid)

    def test_num_opinions_axis_spans_merge_groups(self):
        grid = ScenarioGrid(
            dynamics_base(epsilon=0.2), {"num_opinions": (2, 3, 4)}
        )
        assert_sweep_matches_serial(grid)

    def test_seed_axis_verbatim(self):
        grid = ScenarioGrid(dynamics_base(), {"seed": (3, 11, 42)})
        assert_sweep_matches_serial(grid)

    def test_staggered_convergence_and_retirement(self):
        # Epsilons near the 1 - 1/k signal ceiling converge at different
        # rounds per trial and per point, exercising per-row retirement
        # and batch rebuilds inside the merged round loop.
        grid = ScenarioGrid(
            dynamics_base(
                rule="3-majority",
                epsilon=0.5,
                bias=0.3,
                num_trials=4,
                max_rounds=200,
            ),
            {"epsilon": (0.5, 0.45, 0.05)},
        )
        sweep = assert_sweep_matches_serial(grid)
        rounds = np.concatenate([result.rounds for result in sweep])
        assert len(set(rounds.tolist())) > 1, (
            "config is expected to retire trials at staggered rounds; "
            "tighten epsilons if this stops holding"
        )

    def test_mixed_stop_at_consensus_and_trajectories(self):
        base = dynamics_base(epsilon=0.5, bias=0.3, max_rounds=40)
        grid = ScenarioGrid(
            dataclasses.replace(base, stop_at_consensus=False),
            {"record_trajectories": (True, False)},
        )
        assert_sweep_matches_serial(grid)

    def test_max_rounds_axis(self):
        grid = ScenarioGrid(dynamics_base(), {"max_rounds": (10, 35, 60)})
        assert_sweep_matches_serial(grid)


class TestProtocolCountsEquivalence:
    """Protocol workloads through the fused counts-protocol batches."""

    def test_rumor_epsilon_axis(self):
        grid = ScenarioGrid(protocol_base(), {"epsilon": (0.25, 0.35, 0.45)})
        assert_sweep_matches_serial(grid)

    def test_plurality_bias_axis(self):
        grid = ScenarioGrid(
            protocol_base(workload="plurality", support_size=120, bias=0.4),
            {"bias": (0.3, 0.4, 0.5)},
        )
        assert_sweep_matches_serial(grid)

    def test_num_opinions_axis_groups_by_k(self):
        grid = ScenarioGrid(protocol_base(), {"num_opinions": (2, 3, 4)})
        assert_sweep_matches_serial(grid)

    def test_num_nodes_axis(self):
        grid = ScenarioGrid(protocol_base(), {"num_nodes": (300, 500)})
        assert_sweep_matches_serial(grid)


class TestOneStreamPerPoint:
    """At R = 64 a point's draw steps are vector calls on its one stream
    (runs of at least ``VECTOR_RUN`` entries); fused points stay bitwise
    their serial runs and name the per-point draw order."""

    def test_protocol_grid_at_64_trials(self):
        from repro.faults import FaultModel

        grid = ScenarioGrid(
            protocol_base(
                workload="plurality", num_nodes=10**5, bias=0.1,
                num_trials=64,
            ),
            {
                "epsilon": (0.3, 0.4),
                "faults": (
                    None,
                    FaultModel(kind="omission", fraction=0.05),
                    FaultModel(kind="liar", fraction=0.05),
                ),
            },
        )
        sweep = assert_sweep_matches_serial(grid)
        assert {r.provenance["rng_draw_order"] for r in sweep} == {"per-point"}

    def test_dynamics_grid_at_64_trials(self):
        grid = ScenarioGrid(
            dynamics_base(
                num_nodes=10**4, num_opinions=3, num_trials=64, max_rounds=40
            ),
            {
                "rule": ("voter", "3-majority", "undecided-state",
                         "median-rule"),
                "epsilon": (0.1, 0.3),
            },
        )
        sweep = assert_sweep_matches_serial(grid)
        assert {r.provenance["rng_draw_order"] for r in sweep} == {"per-point"}


class TestStackedDenseLaw:
    """A fused sweep evaluates the dense ``maj()`` law once per Stage-2
    phase and sample size, over every block of that size, and each block
    still gets the law of its serial run."""

    def test_one_law_call_per_phase_and_sample_size(self, monkeypatch):
        """k = 5, R = 16: epsilon 0.3 and 0.35 give Stage-2 sample sizes 35
        and 25, each shared by two bias points, so each of the six dense
        phases makes two calls of 32 rows (the serial loop makes 24 calls
        of 16 rows)."""
        from repro.network import pull_model

        calls = []
        law = pull_model.dense_majority_vote_law

        def counting_law(probabilities, sample_size, runs=None):
            calls.append((len(probabilities), sample_size, runs))
            return law(probabilities, sample_size, runs)

        monkeypatch.setattr(pull_model, "dense_majority_vote_law", counting_law)
        grid = ScenarioGrid(
            Scenario(
                workload="plurality", num_nodes=10**5, num_opinions=5,
                epsilon=0.3, engine="counts", num_trials=16, seed=7,
            ),
            {"epsilon": (0.3, 0.35), "bias": (0.1, 0.2)},
        )
        sweep = simulate_sweep(grid)
        assert sorted(calls) == sorted(
            [(32, 35, [(2, 16)]), (32, 25, [(2, 16)])] * 6
        )
        calls.clear()
        serial = [simulate(scenario) for scenario in grid.scenarios()]
        assert len(calls) == 24
        assert all(rows == 16 and runs == [(1, 16)] for rows, _, runs in calls)
        for index, (alone, fused) in enumerate(zip(serial, sweep)):
            assert_results_equal(alone, fused, f"point {index}")
            paths = fused.provenance["stage2_vote_paths"]
            assert paths == alone.provenance["stage2_vote_paths"]
            assert paths.count("dense") == 6
            assert set(paths) == {"dense", "point"}


class TestFallbackTiers:
    """Points that cannot fuse fall back to per-point simulate()."""

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_dynamics_fallback_engines(self, engine):
        grid = ScenarioGrid(
            dynamics_base(engine=engine, num_nodes=150, num_trials=2),
            {"epsilon": (0.1, 0.3)},
        )
        assert_sweep_matches_serial(grid)

    def test_protocol_batched_fallback(self):
        grid = ScenarioGrid(
            protocol_base(engine="batched", num_nodes=200, num_trials=2),
            {"epsilon": (0.3, 0.4)},
        )
        assert_sweep_matches_serial(grid)

    def test_auto_grid_straddles_tiers(self):
        # One grid whose num_nodes axis crosses the auto counts threshold:
        # some points fuse into the counts batch, the rest run batched.
        grid = ScenarioGrid(
            protocol_base(engine="auto", counts_threshold=400, num_trials=2),
            {"num_nodes": (200, 600)},
        )
        sweep = assert_sweep_matches_serial(grid)
        assert sweep.engines == ["batched", "counts"]

    def test_points_record_the_process_their_tier_simulated(self):
        """A fused counts point runs process P whatever ``process`` says;
        a batched point runs the process it names."""
        grid = ScenarioGrid(
            protocol_base(engine="auto", counts_threshold=400, num_trials=2),
            {"num_nodes": (200, 600), "process": ("push", "balls_bins")},
        )
        sweep = assert_sweep_matches_serial(grid)
        recorded = [
            (engine, result.provenance["delivery_process"])
            for engine, result in zip(sweep.engines, sweep)
        ]
        assert recorded == [
            ("batched", "push"), ("batched", "balls_bins"),
            ("counts", "poisson"), ("counts", "poisson"),
        ]


def count_point_calls(monkeypatch) -> list:
    """Record every point ``simulate_sweep`` runs alone (through
    ``_simulate_resolved``, ``simulate()`` after its engine resolution)."""
    import repro.sim.sweep as sweep_module

    calls: list = []
    original = sweep_module._simulate_resolved

    def counting(scenario, resolution):
        calls.append(scenario)
        return original(scenario, resolution)

    monkeypatch.setattr(sweep_module, "_simulate_resolved", counting)
    return calls


class TestFaultedSweep:
    """Faulted counts points fuse into the batch and stay bitwise exact."""

    @pytest.mark.parametrize("num_opinions", [3, 5])
    def test_every_adversary_fuses_on_counts_and_matches_serial(
        self, monkeypatch, num_opinions
    ):
        from repro.faults import FaultModel

        grid = ScenarioGrid(
            protocol_base(
                workload="plurality", bias=0.3, num_opinions=num_opinions,
                num_nodes=200, num_trials=2,
            ),
            {
                "faults": (
                    None,
                    FaultModel(kind="crash", fraction=0.1, crash_round=30),
                    FaultModel(kind="omission", fraction=0.1, drop_rate=0.4),
                    FaultModel(kind="liar", fraction=0.1),
                    FaultModel(kind="adaptive", fraction=0.1),
                ),
                "epsilon": (0.3, 0.4),
            },
        )
        serial = [simulate(scenario) for scenario in grid.scenarios()]
        calls = count_point_calls(monkeypatch)
        sweep = simulate_sweep(grid)
        assert calls == []
        assert sweep.engines == ["counts"] * grid.size
        for index, (left, right) in enumerate(zip(serial, sweep)):
            assert_results_equal(left, right, f"point {index}")
            assert right.provenance["rng_draw_order"] == "per-point"

    def test_batched_draw_mode_fuses_faulted_points(self, monkeypatch):
        from repro.faults import FaultModel

        grid = ScenarioGrid(
            protocol_base(num_nodes=200, num_trials=2),
            {
                "faults": (
                    None,
                    FaultModel(kind="omission", fraction=0.1),
                    FaultModel(kind="adaptive", fraction=0.1),
                )
            },
        )
        calls = count_point_calls(monkeypatch)
        sweep = simulate_sweep(grid, draw_mode="batched")
        assert calls == []
        for scenario, result in zip(grid.scenarios(), sweep):
            assert result.provenance["engine"] == "counts"
            assert result.provenance["rng_draw_order"] == "batched"
            honest = scenario.num_nodes - scenario.faulty_count()
            assert result.num_nodes == honest
            assert np.all(result.final_opinion_counts.sum(axis=1) <= honest)

    def test_fraction_axis_batched_engine(self):
        from repro.faults import FaultModel

        grid = ScenarioGrid(
            protocol_base(
                workload="plurality", bias=0.4, engine="batched",
                num_nodes=150, num_trials=2,
            ),
            {
                "faults": (
                    FaultModel(kind="adaptive", fraction=0.05),
                    FaultModel(kind="adaptive", fraction=0.2),
                )
            },
        )
        assert_sweep_matches_serial(grid)

    def test_adaptive_fuses_on_counts_and_matches_serial(self, monkeypatch):
        from repro.faults import FaultModel

        grid = ScenarioGrid(
            protocol_base(
                num_nodes=200, num_trials=2,
                faults=FaultModel(kind="adaptive", fraction=0.1),
            ),
            {"epsilon": (0.3, 0.4)},
        )
        calls = count_point_calls(monkeypatch)
        sweep = assert_sweep_matches_serial(grid)
        assert calls == []
        assert sweep.engines == ["counts", "counts"]
        for result in sweep:
            assert "engine_degraded_reason" not in result.provenance


# --------------------------------------------------------------------- #
# Result store integration
# --------------------------------------------------------------------- #


class TestSweepStore:
    def test_second_sweep_is_served_from_cache(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        grid = ScenarioGrid(dynamics_base(), {"epsilon": (0.1, 0.2, 0.3)})
        first = simulate_sweep(grid, store=store, store_label="sweep-test")
        assert first.cache_hits == 0
        second = simulate_sweep(grid, store=store, store_label="sweep-test")
        assert second.cache_hits == grid.size
        assert all(second.from_cache)
        for index in range(grid.size):
            assert_results_equal(
                first[index], second[index], f"cached point {index}"
            )

    def test_extended_grid_only_computes_new_points(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        small = ScenarioGrid(dynamics_base(), {"epsilon": (0.1, 0.2)})
        simulate_sweep(small, store=store, store_label="sweep-test")
        # Growing the axis reuses the cached prefix: the extended grid's
        # first points expand to the exact same scenarios (same derived
        # seeds), so their store identities match.
        extended = ScenarioGrid(dynamics_base(), {"epsilon": (0.1, 0.2, 0.3)})
        sweep = simulate_sweep(extended, store=store, store_label="sweep-test")
        assert sweep.from_cache == [True, True, False]
        serial = [simulate(s) for s in extended.scenarios()]
        for index in range(extended.size):
            assert_results_equal(
                serial[index], sweep[index], f"extended point {index}"
            )

    def test_batched_draw_mode_keys_only_counts_protocol_points(
        self, tmp_path
    ):
        """Dynamics and serial points run per-point in either draw mode, so
        a per-point sweep reuses what a batched-mode sweep stored for them;
        counts-protocol points are recomputed."""
        store = ResultStore(tmp_path / "results")
        grids = (
            ScenarioGrid(
                protocol_base(num_nodes=200, num_trials=2),
                {"engine": ("counts", "sequential")},
            ),
            ScenarioGrid(dynamics_base(), {"engine": ("counts", "sequential")}),
        )
        batched = [
            simulate_sweep(
                grid, store=store, store_label="mixed", draw_mode="batched"
            )
            for grid in grids
        ]
        assert batched[0][0].provenance["rng_draw_order"] == "batched"
        assert batched[1][0].provenance["rng_draw_order"] == "per-point"
        per_trial = [
            simulate_sweep(grid, store=store, store_label="mixed")
            for grid in grids
        ]
        assert per_trial[0].from_cache == [False, True]
        assert per_trial[1].from_cache == [True, True]
        assert per_trial[0][0].provenance["rng_draw_order"] == "per-point"
        for index in range(2):
            assert_results_equal(
                batched[1][index], per_trial[1][index], f"dynamics {index}"
            )
        assert_results_equal(batched[0][1], per_trial[0][1], "sequential")

    def test_each_point_is_keyed_once_and_written_as_computed(
        self, tmp_path, monkeypatch
    ):
        """A fresh point's key serves both its lookup and its write, and
        its payload is written as ``to_json_dict`` returned it: that output
        is already plain JSON, so normalizing it again would change no
        byte of the entry."""
        from repro.utils.artifacts import jsonify_value

        store = ResultStore(tmp_path / "results")
        keyed = []
        key_of = ResultStore.key_of

        def counting_key_of(identity):
            keyed.append(identity)
            return key_of(identity)

        monkeypatch.setattr(ResultStore, "key_of", staticmethod(counting_key_of))
        grid = ScenarioGrid(
            protocol_base(num_nodes=200, num_trials=2),
            {"epsilon": (0.3, 0.4), "engine": ("counts", "sequential")},
        )
        first = simulate_sweep(grid, store=store, store_label="keyed")
        assert len(keyed) == grid.size
        for result in first:
            payload = result.to_json_dict()
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                jsonify_value(payload), sort_keys=True
            )
        keyed.clear()
        resumed = simulate_sweep(grid, store=store, store_label="keyed")
        assert resumed.cache_hits == grid.size and len(keyed) == grid.size
        for index in range(grid.size):
            assert_results_equal(first[index], resumed[index], f"point {index}")

    def test_cache_is_label_scoped(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        grid = ScenarioGrid(dynamics_base(), {"epsilon": (0.1,)})
        simulate_sweep(grid, store=store, store_label="label-a")
        other = simulate_sweep(grid, store=store, store_label="label-b")
        assert other.cache_hits == 0

    def test_a_new_draw_order_version_misses_stored_points(
        self, tmp_path, monkeypatch
    ):
        """A change that moves seeded results (in engine code the code
        version does not hash) bumps DRAW_ORDER_VERSION, and the points
        stored under the old one are recomputed, not served."""
        store = ResultStore(tmp_path / "results")
        grid = ScenarioGrid(dynamics_base(), {"epsilon": (0.1, 0.2)})
        simulate_sweep(grid, store=store, store_label="sweep-test")
        assert simulate_sweep(
            grid, store=store, store_label="sweep-test"
        ).cache_hits == grid.size
        monkeypatch.setattr(
            facade, "DRAW_ORDER_VERSION", facade.DRAW_ORDER_VERSION + 1
        )
        monkeypatch.setattr(facade, "_code_version", None)
        bumped = simulate_sweep(grid, store=store, store_label="sweep-test")
        assert bumped.cache_hits == 0
        assert (
            bumped[0].provenance["code_version"] == facade.sim_code_version()
        )


class TestSweepResultApi:
    def test_summary_and_success_rates_shape(self):
        grid = ScenarioGrid(
            dynamics_base(num_trials=2, max_rounds=20),
            {"num_nodes": (200, 300), "epsilon": (0.1, 0.2)},
        )
        sweep = simulate_sweep(grid)
        rows = sweep.summary()
        assert len(rows) == 4
        for index, row in enumerate(rows):
            assert row["num_nodes"] == grid.point_overrides(index)["num_nodes"]
            assert row["epsilon"] == grid.point_overrides(index)["epsilon"]
            assert row["seed"] == grid.point_seed(index)
            assert row["engine"] == sweep.engines[index]
        assert sweep.success_rates().shape == (2, 2)
        overrides, result = sweep.point(3)
        assert overrides == grid.point_overrides(3)
        assert result is sweep[3]
