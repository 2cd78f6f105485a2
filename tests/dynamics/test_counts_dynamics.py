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
from repro.sim import Scenario, simulate
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


class _CountingGenerator(np.random.Generator):
    """A PCG64 generator that logs each scalar multinomial / binomial call
    as ``(name, n, law)``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def multinomial(self, n, pvals, size=None):
        self.calls.append(("multinomial", n, np.array(pvals, dtype=float)))
        return super().multinomial(n, pvals, size)

    def binomial(self, n, p, size=None):
        self.calls.append(("binomial", n, p))
        return super().binomial(n, p, size)


def logged_calls(rule, sample_size, rows, rounds=1):
    """Per-row call logs of a counts run from ``rows`` (``n = 600``) over
    ``rounds`` rounds, and the run's result."""
    generators = [_CountingGenerator(seed) for seed in range(len(rows))]
    result = build_dynamics(
        "counts", rule, NUM_NODES, uniform_noise_matrix(3, 0.3), generators,
        sample_size=sample_size,
    ).run(
        EnsembleCountsState(np.array(rows), NUM_NODES), rounds,
        target_opinion=1, stop_at_consensus=False,
    )
    return [generator.calls for generator in generators], result


class TestDrawCalls:
    """How many scalar draws a row costs per round, and the "no opinion"
    mass of a row with no undecided node."""

    #: The last row's shares sum past 1.0 by rounding: 1 - sum(shares)
    #: would leave it 1.1e-16 of "no opinion".
    DECIDED = [[300, 200, 100], [600, 0, 0], [1, 1, 598], [2, 313, 285]]
    MIXED = [[100, 0, 200], [0, 600 - 7, 0], [5, 5, 5]]

    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None), ("3-majority", None), ("h-majority", 5),
    ])
    def test_a_decided_row_draws_one_multinomial_per_round(
        self, rule, sample_size
    ):
        rounds = 4
        calls, result = logged_calls(rule, sample_size, self.DECIDED, rounds)
        assert np.all(result.final_states.opinionated_counts() == NUM_NODES)
        for row_calls in calls:
            assert [(name, n) for name, n, _ in row_calls] == [
                ("multinomial", NUM_NODES)
            ] * rounds

    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None), ("3-majority", None), ("h-majority", 5),
        ("median-rule", None),
    ])
    def test_a_row_with_undecided_nodes_draws_one_call_per_group(
        self, rule, sample_size
    ):
        calls, _ = logged_calls(rule, sample_size, self.MIXED)
        for row, row_calls in zip(self.MIXED, calls):
            groups = [NUM_NODES - sum(row)] + row
            assert [(name, n) for name, n, _ in row_calls] == [
                ("multinomial", size) for size in groups if size
            ]

    def test_undecided_state_draws_one_multinomial_and_a_binomial_per_group(
        self,
    ):
        rows = self.DECIDED + self.MIXED + [[0, 0, 0]]
        calls, _ = logged_calls("undecided-state", None, rows)
        for row, row_calls in zip(rows, calls):
            undecided = NUM_NODES - sum(row)
            assert [(name, n) for name, n, _ in row_calls] == (
                [("multinomial", undecided)] if undecided else []
            ) + [("binomial", size) for size in row if size]

    @pytest.mark.parametrize("rule,sample_size", [
        ("voter", None), ("3-majority", None), ("h-majority", 5),
    ])
    def test_no_opinion_mass_comes_from_the_undecided_count(
        self, rule, sample_size
    ):
        """Exactly 0.0 "no opinion" in the observation pmf (voter) and
        "no vote" in the maj() law (3-majority, h-majority) of a decided
        row, so its one group loses no node to a "none" outcome."""
        calls, _ = logged_calls(
            rule, sample_size, self.DECIDED + [[100, 0, 200]]
        )
        for row_calls in calls[:-1]:
            assert [law[0] for _, _, law in row_calls] == [0.0]
        for _, _, law in calls[-1]:
            if rule == "voter":
                assert law[0] == 300 / NUM_NODES
            else:
                assert law[0] > 0.0

    @pytest.mark.parametrize(
        "rule", ["voter", "3-majority", "undecided-state"]
    )
    def test_counts_are_conserved_at_a_trillion_nodes(self, rule):
        """90% undecided at n = 10^12: rows take the grouped draw, then
        (voter, 3-majority) the one-group draw once every node decided.
        Groups this large rule out a multivariate hypergeometric split,
        which numpy refuses past 10^9."""
        result = simulate(Scenario(
            workload="dynamics", rule=rule, num_nodes=10**12,
            support_size=10**11, num_opinions=3, engine="counts",
            num_trials=4, max_rounds=30, stop_at_consensus=False, seed=0,
        ))
        counts = np.asarray(result.final_opinion_counts)
        assert counts.min() >= 0
        assert np.all(counts.sum(axis=1) <= 10**12)
        if rule != "undecided-state":
            assert np.all(counts.sum(axis=1) == 10**12)


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
