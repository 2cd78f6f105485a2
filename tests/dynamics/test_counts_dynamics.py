"""Tests for the counts-engine (sufficient-statistics) baseline dynamics.

Covers the per-rule update arithmetic (conservation laws, absorbing
noise-free consensus), trial-by-trial bitwise reproducibility of the
per-trial randomness contract, the merged round loop's independence from
what shares its batch, the registry, and the result API.  Cross-engine
statistical agreement lives in ``tests/integration/test_engine_agreement.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import CountsState, EnsembleCountsState
from repro.dynamics import (
    DYNAMICS_RULES,
    EnsembleCountsHMajorityDynamics,
    EnsembleCountsThreeMajorityDynamics,
    EnsembleDynamicsResult,
)
from repro.dynamics.base import (
    CountsDynamicsTask,
    run_heterogeneous_counts_dynamics,
)
from repro.experiments.workloads import biased_population
from repro.noise.families import identity_matrix, uniform_noise_matrix
from repro.sim.engines import build_dynamics

NUM_NODES = 600
NUM_TRIALS = 6


@pytest.fixture
def noise():
    return uniform_noise_matrix(3, 0.3)


@pytest.fixture
def initial_state():
    return biased_population(NUM_NODES, 3, 0.2, random_state=0)


def run_counts(rule, sample_size, channel, initial, seed, trials,
               max_rounds=30, **kwargs):
    dynamic = build_dynamics(
        "counts", rule, NUM_NODES, channel, seed, sample_size=sample_size
    )
    kwargs.setdefault("target_opinion", 1)
    return dynamic.run(initial, max_rounds, trials, **kwargs)


class TestCountsUpdateInvariants:
    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None),
        ("3-majority", None),
        ("h-majority", 5),
        ("undecided-state", None),
        ("median-rule", None),
        ("approximate-consensus", None),
    ])
    def test_population_is_conserved(self, rule, sample_size, noise,
                                     initial_state):
        result = run_counts(rule, sample_size, noise, initial_state, 0,
                            NUM_TRIALS, max_rounds=10,
                            stop_at_consensus=False)
        totals = result.final_states.opinionated_counts()
        assert np.all(totals <= NUM_NODES)
        assert np.all(result.final_states.counts >= 0)
        if rule != "undecided-state":
            # Only the undecided-state rule can demote opinionated nodes;
            # the others preserve full opinionation once reached.
            assert np.all(totals == NUM_NODES)

    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None),
        ("3-majority", None),
        ("h-majority", 5),
        ("undecided-state", None),
        ("median-rule", None),
        ("approximate-consensus", None),
    ])
    def test_noise_free_consensus_is_absorbing(self, rule, sample_size):
        consensus = CountsState([NUM_NODES, 0, 0], NUM_NODES)
        result = run_counts(rule, sample_size, identity_matrix(3),
                            consensus, 0, 3, max_rounds=3)
        assert result.success_rate == 1.0
        assert np.all(result.rounds_executed == 1)

    def test_noise_free_three_majority_succeeds_from_bias(self, initial_state):
        result = run_counts("3-majority", None, identity_matrix(3),
                            initial_state, 0, 8, max_rounds=200)
        assert result.success_rate == 1.0
        assert np.all(result.rounds_executed < 200)

    def test_all_undecided_voter_adopts_nothing(self, noise):
        empty = CountsState([0, 0, 0], NUM_NODES)
        result = run_counts("voter", None, noise, empty, 0, 2, max_rounds=2,
                            target_opinion=0, stop_at_consensus=False)
        assert np.all(result.final_states.counts == 0)


class TestReproducibility:
    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None),
        ("3-majority", None),
        ("undecided-state", None),
        ("median-rule", None),
        ("approximate-consensus", None),
    ])
    def test_batch_matches_batch_size_one_runs(self, rule, sample_size,
                                               noise, initial_state):
        """With per-trial sources, a counts batch is bitwise identical to
        batch-size-1 counts runs with the same sources."""
        seeds = [101, 102, 103]
        batched = build_dynamics(
            "counts", rule, NUM_NODES, noise,
            [np.random.default_rng(seed) for seed in seeds],
            sample_size=sample_size,
        ).run(initial_state, 12, len(seeds), target_opinion=1)
        for trial, seed in enumerate(seeds):
            single = build_dynamics(
                "counts", rule, NUM_NODES, noise,
                [np.random.default_rng(seed)], sample_size=sample_size,
            ).run(initial_state, 12, 1, target_opinion=1)
            assert np.array_equal(
                batched.final_states.counts[trial],
                single.final_states.counts[0],
            )
            assert batched.rounds_executed[trial] == single.rounds_executed[0]

    def test_reproducible_with_fixed_seed(self, noise, initial_state):
        first = run_counts("median-rule", None, noise, initial_state, 7, 4)
        second = run_counts("median-rule", None, noise, initial_state, 7, 4)
        assert np.array_equal(
            first.final_states.counts, second.final_states.counts
        )

    def test_int_seed_spawns_stable_per_trial_streams(self, noise,
                                                      initial_state):
        small = run_counts("3-majority", None, noise, initial_state, 9, 2)
        large = run_counts("3-majority", None, noise, initial_state, 9, 4)
        assert np.array_equal(
            small.final_states.counts, large.final_states.counts[:2]
        )


class TestSharedBatch:
    """A task's result does not depend on what else shares its batch."""

    @pytest.mark.parametrize("num_opinions", [3, 4, 5])
    @pytest.mark.parametrize("num_nodes", [4, 5, 7, 10])
    def test_approximate_consensus_tasks_sharing_one_engine(
        self, num_nodes, num_opinions
    ):
        # A serial loop may reuse one engine, so two batch tasks may share
        # it; each must still get its full phase budget.
        noise = uniform_noise_matrix(num_opinions, 0.3)
        low = [num_nodes - 1] + [0] * (num_opinions - 2) + [1]
        high = [1] + [0] * (num_opinions - 2) + [num_nodes - 1]
        for seed in range(5):
            dynamic = build_dynamics(
                "counts", "approximate-consensus", num_nodes, noise, seed,
                epsilon=0.1,
            )
            tasks = [
                CountsDynamicsTask(
                    dynamics=dynamic,
                    initial_state=CountsState(counts, num_nodes),
                    max_rounds=15,
                    num_trials=4,
                    target_opinion=1,
                    stop_at_consensus=False,
                )
                for counts in (low, high)
            ]
            batched = run_heterogeneous_counts_dynamics(tasks)
            for task, fused in zip(tasks, batched):
                serial = dynamic.run(
                    task.initial_state, 15, 4, target_opinion=1,
                    stop_at_consensus=False,
                )
                assert np.array_equal(
                    fused.final_states.counts, serial.final_states.counts
                )
                assert np.array_equal(fused.bias_history,
                                      serial.bias_history)


class TestRegistryAndApi:
    def test_all_rules_construct(self, noise):
        for rule in DYNAMICS_RULES:
            sample_size = 5 if rule == "h-majority" else None
            dynamic = build_dynamics(
                "counts", rule, NUM_NODES, noise, 0, sample_size=sample_size
            )
            assert dynamic.num_opinions == 3

    def test_rejects_unknown_rule(self, noise):
        with pytest.raises(ValueError):
            build_dynamics("counts", "gossip", NUM_NODES, noise)

    def test_h_majority_requires_sample_size(self, noise):
        with pytest.raises(ValueError):
            build_dynamics("counts", "h-majority", NUM_NODES, noise)

    def test_intractable_vote_table_rejected_eagerly(self, noise):
        with pytest.raises(ValueError, match="intractable"):
            EnsembleCountsHMajorityDynamics(NUM_NODES, noise, 500)

    def test_result_shapes_and_types(self, noise, initial_state):
        result = run_counts("voter", None, noise, initial_state, 0, 5,
                            max_rounds=10, stop_at_consensus=False)
        assert isinstance(result, EnsembleDynamicsResult)
        assert isinstance(result.final_states, EnsembleCountsState)
        assert result.num_trials == 5
        assert result.successes.shape == (5,)
        assert result.converged.shape == (5,)
        assert result.consensus_opinions.dtype == np.int64
        assert result.rounds_executed.shape == (5,)
        assert result.final_biases.shape == (5,)
        assert result.bias_history.shape == (10, 5)
        assert 0.0 <= result.success_rate <= 1.0
        assert result.convergence_rate >= result.success_rate
        summary = result.summary()
        assert summary["num_trials"] == 5
        assert summary["target_opinion"] == 1

    def test_accepts_all_state_types(self, noise, initial_state):
        dynamic = EnsembleCountsThreeMajorityDynamics(NUM_NODES, noise, 0)
        counts_single = CountsState.from_state(initial_state)
        counts_batch = EnsembleCountsState.from_counts_state(counts_single, 3)
        for initial, trials in [
            (initial_state, 3),
            (counts_single, 3),
            (counts_batch, None),
        ]:
            result = dynamic.run(initial, 5, trials, target_opinion=1,
                                 stop_at_consensus=False)
            assert result.num_trials == 3

    def test_state_size_mismatch_rejected(self, noise):
        dynamic = EnsembleCountsThreeMajorityDynamics(NUM_NODES, noise, 0)
        with pytest.raises(ValueError):
            dynamic.run(CountsState([1, 0, 0], NUM_NODES + 1), 5, 2)

    def test_billion_node_run_is_instant(self, noise):
        """The point of the tier: n = 10^9 costs the same as n = 10^3."""
        giant = CountsState(
            np.array([550_000_000, 250_000_000, 200_000_000]), 10**9
        )
        dynamic = EnsembleCountsThreeMajorityDynamics(10**9, noise, 0)
        result = dynamic.run(giant, 20, 4, target_opinion=1,
                             stop_at_consensus=False)
        assert result.num_trials == 4
        assert np.all(
            result.final_states.opinionated_counts() == 10**9
        )
