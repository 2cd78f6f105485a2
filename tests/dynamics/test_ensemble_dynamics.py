"""Tests for the batched ensemble dynamics engine.

The central guarantee under test mirrors the ensemble protocol's: with
per-trial randomness sources, a batched run of ``R`` trials is *bitwise
identical* to ``R`` separate batch-size-1 runs with the same sources — the
trial axis is pure vectorization and never changes any trial's trajectory.
Agreement with the sequential per-message reference engine is
distributional and is checked statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import EnsembleState
from repro.dynamics import (
    DYNAMICS_RULES,
    EnsembleOpinionDynamics,
    EnsembleThreeMajorityDynamics,
)
from repro.experiments.workloads import biased_population
from repro.noise.families import identity_matrix, uniform_noise_matrix
from repro.sim.engines import build_dynamics

NUM_NODES = 250
SEEDS = [101, 202, 303]

RULE_PARAMS = [
    (rule, 5 if rule == "h-majority" else None) for rule in DYNAMICS_RULES
]


@pytest.fixture
def noise():
    return uniform_noise_matrix(3, 0.3)


@pytest.fixture
def initial_state():
    return biased_population(NUM_NODES, 3, 0.25, random_state=1)


def run_batched(rule, sample_size, noise, initial_state, random_state,
                num_trials, max_rounds=120, **kwargs):
    dynamic = build_dynamics(
        "batched", rule, initial_state.num_nodes, noise, random_state,
        sample_size=sample_size,
    )
    return dynamic.run(
        initial_state, max_rounds, num_trials, target_opinion=1, **kwargs
    )


class TestSeedMatchedEquivalence:
    @pytest.mark.parametrize("rule,sample_size", RULE_PARAMS)
    def test_batched_equals_batch_size_one_runs(
        self, rule, sample_size, noise, initial_state
    ):
        """The acceptance-criterion equivalence: R batched trials == R
        batch-size-1 runs, seed for seed, bit for bit."""
        batched = run_batched(
            rule, sample_size, noise, initial_state, SEEDS, len(SEEDS)
        )
        for trial, seed in enumerate(SEEDS):
            single = run_batched(
                rule, sample_size, noise, initial_state, [seed], 1
            )
            assert np.array_equal(
                batched.final_states.opinions[trial],
                single.final_states.opinions[0],
            )
            assert batched.rounds_executed[trial] == single.rounds_executed[0]
            assert bool(batched.converged[trial]) == bool(single.converged[0])
            assert bool(batched.successes[trial]) == bool(single.successes[0])
            assert (
                batched.trial_result(trial).bias_history
                == single.trial_result(0).bias_history
            )

    @pytest.mark.parametrize("rule,sample_size", RULE_PARAMS)
    def test_early_stopping_matches_on_noise_free_channel(
        self, rule, sample_size, initial_state
    ):
        """Trials converge at staggered rounds on the clean channel; the
        active-trials bookkeeping must not perturb any trial's stream."""
        clean = identity_matrix(3)
        batched = run_batched(
            rule, sample_size, clean, initial_state, SEEDS, len(SEEDS),
            max_rounds=3000,
        )
        for trial, seed in enumerate(SEEDS):
            single = run_batched(
                rule, sample_size, clean, initial_state, [seed], 1,
                max_rounds=3000,
            )
            assert np.array_equal(
                batched.final_states.opinions[trial],
                single.final_states.opinions[0],
            )
            assert batched.rounds_executed[trial] == single.rounds_executed[0]

    def test_int_seed_spawns_stable_per_trial_streams(self, noise, initial_state):
        small = run_batched("3-majority", None, noise, initial_state, 7, 2)
        large = run_batched("3-majority", None, noise, initial_state, 7, 4)
        assert np.array_equal(
            small.final_states.opinions, large.final_states.opinions[:2]
        )

    def test_reproducible_with_fixed_seed(self, noise, initial_state):
        first = run_batched("median-rule", None, noise, initial_state, 3, 4)
        second = run_batched("median-rule", None, noise, initial_state, 3, 4)
        assert np.array_equal(
            first.final_states.opinions, second.final_states.opinions
        )


class TestStatisticalAgreementWithSequential:
    def test_success_rates_agree_on_small_grid(self):
        """Both engines implement the same dynamics, so success rates over a
        small (rule, channel) grid must agree within sampling noise."""
        trials = 16
        initial = biased_population(300, 3, 0.3, random_state=2)
        grid = [
            ("3-majority", None, identity_matrix(3)),
            ("undecided-state", None, identity_matrix(3)),
            ("3-majority", None, uniform_noise_matrix(3, 0.6)),
        ]
        for rule, sample_size, channel in grid:
            batched = build_dynamics(
                "batched", rule, 300, channel, 0, sample_size=sample_size
            ).run(initial, 400, trials, target_opinion=1)
            sequential_successes = []
            for seed in range(trials):
                result = build_dynamics(
                    "sequential", rule, 300, channel, 1000 + seed, sample_size=sample_size
                ).run(initial, 400, target_opinion=1)
                sequential_successes.append(result.success)
            assert batched.success_rate == pytest.approx(
                float(np.mean(sequential_successes)), abs=0.35
            )

    def test_three_majority_amplifies_bias_like_sequential(self, noise):
        """Mean one-round bias change of the batched engine matches the
        sequential engine (both sample the same observation channel)."""
        initial = biased_population(2000, 3, 0.2, random_state=3)
        batched = build_dynamics("batched", "3-majority", 2000, noise, 0).run(
            initial, 1, 24, target_opinion=1, stop_at_consensus=False
        )
        sequential_biases = []
        for seed in range(24):
            result = build_dynamics("sequential", "3-majority", 2000, noise, seed).run(
                initial, 1, target_opinion=1, stop_at_consensus=False
            )
            sequential_biases.append(result.bias_history[0])
        assert float(batched.bias_history[0].mean()) == pytest.approx(
            float(np.mean(sequential_biases)), abs=0.03
        )

    def test_noise_free_three_majority_always_succeeds(self, initial_state):
        batched = run_batched(
            "3-majority", None, identity_matrix(3), initial_state, 0, 8,
            max_rounds=400,
        )
        assert batched.success_rate == 1.0
        assert np.all(batched.rounds_executed < 400)


class TestEnsembleDynamicsApi:
    def test_result_shapes_and_types(self, noise, initial_state):
        result = run_batched("voter", None, noise, initial_state, 0, 5,
                             max_rounds=10)
        assert result.num_trials == 5
        assert result.successes.shape == (5,)
        assert result.successes.dtype == bool
        assert result.converged.shape == (5,)
        assert result.consensus_opinions.shape == (5,)
        assert result.rounds_executed.shape == (5,)
        assert result.final_biases.shape == (5,)
        assert result.bias_history.shape == (10, 5)
        assert 0.0 <= result.success_rate <= 1.0
        assert result.success_count == int(result.successes.sum())
        assert result.convergence_rate >= result.success_rate
        summary = result.summary()
        assert summary["num_trials"] == 5
        assert summary["target_opinion"] == 1

    def test_trial_result_is_a_dynamics_result(self, noise, initial_state):
        result = run_batched("3-majority", None, noise, initial_state, 0, 3,
                             max_rounds=10)
        trial = result.trial_result(1)
        assert trial.final_state.num_nodes == NUM_NODES
        assert trial.target_opinion == 1
        assert len(trial.bias_history) == trial.rounds_executed

    def test_accepts_prebuilt_ensemble_state(self, noise, initial_state):
        ensemble = EnsembleState.from_state(initial_state, 3)
        result = EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
            ensemble, 10
        )
        assert result.num_trials == 3

    def test_rejects_num_trials_mismatch(self, noise, initial_state):
        ensemble = EnsembleState.from_state(initial_state, 3)
        with pytest.raises(ValueError):
            EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
                ensemble, 10, 4
            )

    def test_requires_num_trials_for_population_state(self, noise, initial_state):
        with pytest.raises(ValueError):
            EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
                initial_state, 10
            )

    def test_rejects_node_count_mismatch(self, noise):
        with pytest.raises(ValueError):
            EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
                biased_population(NUM_NODES + 1, 3, 0.2, random_state=0), 10, 2
            )

    def test_rejects_opinion_count_mismatch(self, noise):
        with pytest.raises(ValueError):
            EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
                biased_population(NUM_NODES, 5, 0.2, random_state=0), 10, 2
            )

    def test_rejects_out_of_range_target(self, noise, initial_state):
        with pytest.raises(ValueError):
            EnsembleThreeMajorityDynamics(NUM_NODES, noise, 0).run(
                initial_state, 10, 2, target_opinion=7
            )

    def test_no_early_stop_when_disabled(self, initial_state):
        result = run_batched(
            "3-majority", None, identity_matrix(3), initial_state, 0, 3,
            max_rounds=30, stop_at_consensus=False,
        )
        assert np.all(result.rounds_executed == 30)

    def test_history_can_be_disabled(self, noise, initial_state):
        result = run_batched("voter", None, noise, initial_state, 0, 3,
                             max_rounds=5, record_history=False)
        assert result.bias_history.shape == (0, 3)

    def test_initial_state_not_mutated(self, noise, initial_state):
        snapshot = initial_state.opinions.copy()
        run_batched("3-majority", None, noise, initial_state, 0, 3,
                    max_rounds=5)
        assert np.array_equal(initial_state.opinions, snapshot)

    def test_abstract_base_cannot_be_instantiated(self, noise):
        with pytest.raises(TypeError):
            EnsembleOpinionDynamics(NUM_NODES, noise)


class TestMakeDynamicsRegistry:
    def test_rejects_unknown_rule(self, noise):
        with pytest.raises(ValueError):
            build_dynamics("sequential", "bogus", 10, noise)
        with pytest.raises(ValueError):
            build_dynamics("batched", "bogus", 10, noise)

    def test_h_majority_requires_sample_size(self, noise):
        with pytest.raises(ValueError):
            build_dynamics("sequential", "h-majority", 10, noise)
        with pytest.raises(ValueError):
            build_dynamics("batched", "h-majority", 10, noise)

    def test_sample_size_rejected_for_other_rules(self, noise):
        with pytest.raises(ValueError):
            build_dynamics("sequential", "voter", 10, noise, sample_size=3)
        with pytest.raises(ValueError):
            build_dynamics("batched", "median-rule", 10, noise, sample_size=3)

    @pytest.mark.parametrize("rule,sample_size", RULE_PARAMS)
    def test_engines_share_names(self, rule, sample_size, noise):
        sequential = build_dynamics(
            "sequential", rule, 10, noise, sample_size=sample_size
        )
        batched = build_dynamics(
            "batched", rule, 10, noise, sample_size=sample_size
        )
        assert sequential.name == batched.name
