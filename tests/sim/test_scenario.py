"""Tests for the declarative Scenario (repro.sim.scenario)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.noise.families import cyclic_shift_matrix
from repro.sim import ENGINE_POLICIES, WORKLOADS, Scenario, ScenarioError, simulate


def scenario_for(workload: str, engine: str, **overrides) -> Scenario:
    """A small valid scenario for any (workload, engine) combination."""
    knobs = dict(
        workload=workload,
        num_nodes=200,
        num_opinions=3,
        epsilon=0.3,
        engine=engine,
        num_trials=3,
        seed=11,
    )
    if workload == "dynamics":
        knobs.update(rule="3-majority", bias=0.3, max_rounds=50)
    if workload == "plurality":
        knobs.update(support_size=80, bias=0.4)
    knobs.update(overrides)
    return Scenario(**knobs)


class TestRoundTrip:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("engine", ENGINE_POLICIES)
    def test_to_dict_from_dict_is_identity(self, workload, engine):
        scenario = scenario_for(workload, engine)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_preserves_custom_noise(self):
        noise = cyclic_shift_matrix(5, 0.3)
        scenario = Scenario(
            workload="plurality",
            num_nodes=300,
            num_opinions=5,
            epsilon=0.1,
            noise=noise,
            engine="batched",
            support_size=100,
            shares=(0.3, 0.2, 0.2, 0.15, 0.15),
            num_trials=2,
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.noise.name == noise.name

    def test_to_dict_is_json_serializable(self):
        import json

        noise = cyclic_shift_matrix(3, 0.2)
        scenario = scenario_for("rumor", "auto", noise=noise, epsilon=0.1)
        document = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(document) == scenario

    def test_from_dict_rejects_unknown_fields(self):
        document = scenario_for("rumor", "auto").to_dict()
        document["banana"] = 1
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict(document)


class TestValidation:
    def test_bad_workload_names_the_options(self):
        with pytest.raises(ValueError) as excinfo:
            Scenario(workload="gossip")
        for workload in WORKLOADS:
            assert workload in str(excinfo.value)

    def test_bad_engine_names_the_options(self):
        with pytest.raises(ValueError) as excinfo:
            Scenario(workload="rumor", engine="warp")
        for engine in ENGINE_POLICIES:
            assert engine in str(excinfo.value)

    def test_bad_process_names_the_options(self):
        with pytest.raises(ValueError, match="balls_bins"):
            Scenario(workload="rumor", process="carrier-pigeon")

    def test_dynamics_requires_a_rule_naming_the_options(self):
        with pytest.raises(ValueError, match="3-majority"):
            Scenario(workload="dynamics")

    def test_unknown_rule_names_the_options(self):
        with pytest.raises(ValueError, match="undecided-state"):
            Scenario(workload="dynamics", rule="telepathy")

    def test_h_majority_requires_sample_size(self):
        with pytest.raises(ValueError, match="requires sample_size"):
            Scenario(workload="dynamics", rule="h-majority")

    @pytest.mark.parametrize(
        "seed",
        [-1, 1.5, "abc", np.random.default_rng(0), np.int64(7)],
        ids=["negative", "float", "string", "generator", "numpy-int"],
    )
    def test_seed_must_be_none_or_a_non_negative_int(self, seed):
        """Bad seeds fail validation up front instead of deep in numpy (or,
        for a Generator, in ``to_json``); numpy integers are stored as int."""
        knobs = dict(workload="rumor", num_nodes=200, engine="counts",
                     num_trials=2)
        if not isinstance(seed, np.integer):
            with pytest.raises(ScenarioError, match="seed"):
                Scenario(seed=seed, **knobs)
            return
        scenario = Scenario(seed=seed, **knobs)
        assert scenario == Scenario(seed=int(seed), **knobs)
        document = json.loads(simulate(scenario).to_json())
        assert document["provenance"]["seed"] == 7

    def test_sample_size_rejected_for_other_rules(self):
        with pytest.raises(ValueError, match="does not take a sample_size"):
            Scenario(workload="dynamics", rule="voter", sample_size=3)

    def test_rule_rejected_outside_dynamics(self):
        with pytest.raises(ValueError, match="workload 'dynamics'"):
            Scenario(workload="rumor", rule="voter")

    def test_support_size_rejected_for_rumor(self):
        with pytest.raises(ValueError, match="plurality"):
            Scenario(workload="rumor", support_size=10)

    @pytest.mark.parametrize("engine", ["counts", "auto"])
    def test_counts_rejects_ablation_knobs_naming_supported_engines(
        self, engine
    ):
        with pytest.raises(ValueError) as excinfo:
            Scenario(
                workload="rumor",
                engine=engine,
                sampling_method="with_replacement",
            )
        message = str(excinfo.value)
        assert "batched" in message and "sequential" in message
        with pytest.raises(ValueError, match="batched"):
            Scenario(workload="rumor", engine=engine, use_full_multiset=True)

    def test_batched_serves_the_ablation_knobs(self):
        scenario = Scenario(
            workload="rumor", engine="batched",
            sampling_method="with_replacement", use_full_multiset=True,
        )
        assert scenario.sampling_method == "with_replacement"

    def test_counts_rejects_intractable_h_majority_table(self):
        with pytest.raises(ValueError, match="maj\\(\\) table budget"):
            Scenario(
                workload="dynamics",
                rule="h-majority",
                sample_size=256,
                num_opinions=3,
                engine="counts",
            )

    def test_counts_threshold_requires_auto(self):
        with pytest.raises(ValueError, match="engine='auto'"):
            Scenario(workload="rumor", engine="counts", counts_threshold=10)

    def test_shares_must_match_opinions_and_sum_to_one(self):
        with pytest.raises(ValueError, match="one entry per opinion"):
            Scenario(
                workload="plurality", num_opinions=3, shares=(0.5, 0.5)
            )
        with pytest.raises(ValueError, match="sum to 1"):
            Scenario(
                workload="plurality", num_opinions=2, shares=(0.9, 0.5)
            )

    def test_noise_must_match_num_opinions(self):
        with pytest.raises(ValueError, match="opinions"):
            Scenario(
                workload="rumor",
                num_opinions=4,
                noise=cyclic_shift_matrix(3, 0.2),
            )

    def test_topology_requires_sequential_engine(self):
        with pytest.raises(ValueError, match="sequential"):
            Scenario(
                workload="rumor", topology="random_regular", degree=8,
                engine="batched",
            )

    def test_random_regular_requires_degree(self):
        with pytest.raises(ValueError, match="degree"):
            Scenario(
                workload="rumor", topology="random_regular",
                engine="sequential",
            )

    def test_topology_rejected_for_dynamics(self):
        with pytest.raises(ValueError, match="protocol workloads"):
            Scenario(
                workload="dynamics", rule="voter", engine="sequential",
                topology="random_regular", degree=8,
            )


class TestCrossWorkloadKnobRejection:
    """Inapplicable knobs are rejected by name, never silently dropped."""

    def test_dynamics_rejects_protocol_process(self):
        with pytest.raises(ValueError, match="protocol workloads"):
            Scenario(workload="dynamics", rule="voter", process="poisson")

    def test_dynamics_rejects_round_scale(self):
        with pytest.raises(ValueError, match="protocol workloads"):
            Scenario(workload="dynamics", rule="voter", round_scale=2.0)

    def test_dynamics_rejects_stage2_ablations(self):
        with pytest.raises(ValueError, match="protocol workloads"):
            Scenario(
                workload="dynamics", rule="voter", engine="batched",
                sampling_method="with_replacement",
            )

    def test_protocol_rejects_max_rounds(self):
        with pytest.raises(ValueError, match="dynamics"):
            Scenario(workload="rumor", max_rounds=10)

    def test_protocol_rejects_stop_at_consensus(self):
        with pytest.raises(ValueError, match="dynamics"):
            Scenario(workload="plurality", stop_at_consensus=False)

    def test_rumor_rejects_shares(self):
        with pytest.raises(ValueError, match="plurality"):
            Scenario(workload="rumor", num_opinions=2, shares=(0.6, 0.4))


class TestCountsNativeEntryStates:
    """The counts tier's entry state is O(k) — no n-sized allocation."""

    @pytest.mark.parametrize(
        "workload,knobs",
        [
            ("rumor", {"correct_opinion": 2}),
            ("plurality", {"support_size": 80, "bias": 0.4}),
            ("plurality", {"support_size": 70, "shares": (0.5, 0.3, 0.2)}),
            ("dynamics", {"rule": "voter", "bias": 0.3}),
            ("dynamics", {"rule": "voter", "support_size": 60, "bias": 0.3}),
        ],
    )
    def test_counts_state_matches_per_node_construction(self, workload, knobs):
        scenario = Scenario(
            workload=workload, num_nodes=200, num_opinions=3, epsilon=0.3,
            engine="counts", num_trials=2, seed=5, **knobs,
        )
        counts_state = scenario.initial_counts_state()
        per_node = scenario.initial_state()
        np.testing.assert_array_equal(
            counts_state.counts, per_node.opinion_counts()
        )
        assert counts_state.num_nodes == per_node.num_nodes

    def test_counts_tier_runs_beyond_materializable_n(self):
        """A population far beyond memory must still simulate on counts."""
        from repro.sim import simulate

        result = simulate(
            Scenario(
                workload="dynamics", rule="3-majority", num_nodes=10**12,
                num_opinions=3, epsilon=0.66, bias=0.3, engine="counts",
                num_trials=2, seed=0, max_rounds=25,
            )
        )
        assert result.num_nodes == 10**12
        assert result.engine == "counts"

    def test_counts_protocol_entry_is_counts_native_at_huge_n(self):
        """initial_counts_state never allocates an n-sized array."""
        scenario = Scenario(
            workload="plurality", num_nodes=10**12, num_opinions=3,
            epsilon=0.3, engine="counts", num_trials=2, seed=0,
            support_size=10**11, bias=0.2,
        )
        state = scenario.initial_counts_state()
        assert int(state.counts.sum()) == 10**11
        assert state.num_nodes == 10**12


class TestDerivedObjects:
    def test_initial_state_is_deterministic_in_the_seed(self):
        scenario = scenario_for("dynamics", "batched", seed=5)
        assert scenario.initial_state() == scenario.initial_state()

    def test_rumor_initial_state_is_single_source(self):
        scenario = scenario_for("rumor", "auto", correct_opinion=2)
        state = scenario.initial_state()
        assert state.opinionated_count() == 1
        assert scenario.target_opinion() == 2

    def test_plurality_target_follows_the_shares(self):
        scenario = Scenario(
            workload="plurality", num_opinions=3, num_nodes=100,
            support_size=60, shares=(0.2, 0.5, 0.3), engine="batched",
        )
        assert scenario.target_opinion() == 2

    def test_default_noise_is_the_uniform_matrix(self):
        scenario = scenario_for("rumor", "auto", epsilon=0.25)
        noise = scenario.build_noise()
        assert noise.num_opinions == scenario.num_opinions
        assert "0.25" in noise.name or noise.name.startswith("uniform")


class TestActionableErrorMessages:
    """Every invalid knob raises the single ScenarioError type, naming the
    offending knob and the valid alternatives (the simulate() facade's
    actionable-error contract)."""

    def test_scenario_error_is_the_single_value_error_subtype(self):
        from repro.sim.scenario import ScenarioError

        assert issubclass(ScenarioError, ValueError)
        with pytest.raises(ScenarioError) as excinfo:
            scenario_for("gossip", "auto")
        assert "workload" in str(excinfo.value)
        assert "rumor" in str(excinfo.value)  # names the alternatives

    def test_bad_engine_lists_the_policies(self):
        from repro.sim.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="engine must be one of"):
            scenario_for("rumor", "quantum")

    def test_faults_on_analytic_points_to_the_sampling_engines(self):
        from repro.faults import FaultModel
        from repro.sim.scenario import ScenarioError

        with pytest.raises(ScenarioError) as excinfo:
            scenario_for(
                "rumor", "analytic",
                faults=FaultModel(kind="liar", fraction=0.1),
            )
        message = str(excinfo.value)
        assert "analytic" in message and "sampling engines" in message

    def test_faults_on_dynamics_points_to_approximate_consensus(self):
        from repro.faults import FaultModel
        from repro.sim.scenario import ScenarioError

        with pytest.raises(ScenarioError) as excinfo:
            scenario_for(
                "dynamics", "batched",
                faults=FaultModel(kind="crash", fraction=0.1, crash_round=2),
            )
        assert "approximate-consensus" in str(excinfo.value)

    def test_adaptive_faults_are_valid_on_the_counts_policies(self):
        from repro.faults import FaultModel

        for engine in ("counts", "auto"):
            scenario = scenario_for(
                "rumor", engine,
                faults=FaultModel(kind="adaptive", fraction=0.1),
            )
            assert scenario.faults.kind == "adaptive"

    def test_fault_model_errors_surface_as_scenario_errors(self):
        """Model-level failures (here: a fraction leaving no honest node
        at this population size) re-raise as ScenarioError, so callers
        catch one type for every invalid knob."""
        from repro.faults import FaultModel
        from repro.sim.scenario import ScenarioError

        with pytest.raises(ScenarioError):
            scenario_for(
                "rumor", "auto", num_nodes=2,
                faults=FaultModel(kind="liar", fraction=0.9),
            )

    def test_approximate_consensus_epsilon_message_names_the_reuse(self):
        from repro.sim.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="precision target"):
            scenario_for(
                "dynamics", "batched", rule="approximate-consensus",
                epsilon=1.2,
            )
