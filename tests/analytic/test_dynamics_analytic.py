"""Tests for the analytic dynamics tier: the exact Markov chain.

The exact chain is checked against first principles (stochastic kernel,
hand-computed voter law at n = 2, noise-free absorption).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import analytic
from repro.dynamics.analytic import (
    AnalyticDynamicsResult,
    ExactDynamicsChain,
    exact_dynamics_is_tractable,
    observation_law,
    rule_group_laws,
)
from repro.noise.families import identity_matrix, uniform_noise_matrix

ALL_RULES = [
    ("voter", None),
    ("3-majority", None),
    ("h-majority", 5),
    ("undecided-state", None),
    ("median-rule", None),
]


class TestTractabilityGate:
    def test_small_instances_are_tractable(self):
        for rule, sample_size in ALL_RULES:
            assert exact_dynamics_is_tractable(rule, 12, 2, sample_size=sample_size)

    def test_large_instances_are_not(self):
        assert not exact_dynamics_is_tractable("voter", 300, 3)

    def test_intractable_h_majority_table_is_rejected(self):
        # maj() vote tables blow up before the state budget does.
        assert not exact_dynamics_is_tractable("h-majority", 10, 2, sample_size=400)


class TestObservationLaw:
    def test_is_a_distribution(self):
        noise = uniform_noise_matrix(2, 0.4)
        # Opinion shares only; the undecided mass (0.25) is implicit.
        law = observation_law(np.array([0.45, 0.30]), noise)
        assert law.shape == (3,)
        assert np.all(law >= 0)
        assert law.sum() == pytest.approx(1.0)

    def test_identity_noise_preserves_shares(self):
        law = observation_law(np.array([0.5, 0.3]), identity_matrix(2))
        assert np.allclose(law, [0.2, 0.5, 0.3])


class TestExactChainKernel:
    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_kernel_rows_are_distributions(self, rule, sample_size):
        chain = ExactDynamicsChain(
            rule, 8, uniform_noise_matrix(2, 0.4), sample_size=sample_size
        )
        kernel = chain.transition_kernel()
        num_states = chain.states.shape[0]
        assert kernel.shape == (num_states, num_states)
        assert np.all(kernel >= 0)
        assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-10)

    def test_voter_one_round_law_at_n2_by_hand(self):
        # n = 2, k = 2, identity noise, state (1, 1): each node observes a
        # uniform node; observing itself keeps its value, observing the
        # other adopts it.  Per-node law: 1/2 keep, 1/2 flip, independent.
        chain = ExactDynamicsChain("voter", 2, identity_matrix(2))
        distribution = chain.one_round_distribution(np.array([1, 1]))
        from repro.analytic import state_indices

        both_first = state_indices(np.array([[2, 0]]), 2, 2)[0]
        both_second = state_indices(np.array([[0, 2]]), 2, 2)[0]
        split = state_indices(np.array([[1, 1]]), 2, 2)[0]
        assert distribution[both_first] == pytest.approx(0.25)
        assert distribution[both_second] == pytest.approx(0.25)
        assert distribution[split] == pytest.approx(0.5)

    def test_noise_free_consensus_absorbs(self):
        chain = ExactDynamicsChain("3-majority", 10, identity_matrix(2))
        result = chain.run(
            np.array([10, 0]), 5, target_opinion=1, record_history=False
        )
        assert result.success_probability == pytest.approx(1.0)
        assert result.convergence_probability == pytest.approx(1.0)

    def test_run_returns_expected_fields(self):
        chain = ExactDynamicsChain("voter", 12, uniform_noise_matrix(2, 0.5))
        result = chain.run(np.array([7, 4]), 60, target_opinion=1)
        assert isinstance(result, AnalyticDynamicsResult)
        assert result.method == "exact"
        assert 0.0 <= result.success_probability <= 1.0
        assert 0.0 <= result.convergence_probability <= 1.0
        assert result.expected_final_counts.shape == (2,)
        assert result.bias_trajectory.ndim == 1
        assert result.state_space_size == chain.states.shape[0]

    def test_success_and_convergence_probabilities_are_consistent(self):
        chain = ExactDynamicsChain("3-majority", 12, uniform_noise_matrix(2, 0.5))
        result = chain.run(np.array([7, 4]), 60, target_opinion=1)
        assert result.success_probability <= result.convergence_probability + 1e-12

    def test_kernel_cache_reuses_identical_configurations(self):
        noise = uniform_noise_matrix(2, 0.5)
        first = ExactDynamicsChain("voter", 10, noise)
        second = ExactDynamicsChain("voter", 10, noise)
        assert first.transition_kernel() is second.transition_kernel()

    def test_kernel_cache_keeps_the_four_most_recent_kernels(self):
        kernels = [
            ExactDynamicsChain(
                "voter", 10, uniform_noise_matrix(2, epsilon)
            ).transition_kernel()
            for epsilon in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
        ]
        assert len(analytic._KERNEL_CACHE) <= 4
        # The newest kernel is served from the cache; the oldest is gone.
        newest = ExactDynamicsChain("voter", 10, uniform_noise_matrix(2, 0.35))
        assert newest.transition_kernel() is kernels[-1]
        oldest = ExactDynamicsChain("voter", 10, uniform_noise_matrix(2, 0.1))
        assert oldest.transition_kernel() is not kernels[0]

    def test_population_beyond_state_budget_names_counts(self):
        with pytest.raises(ValueError, match="engine='counts'"):
            ExactDynamicsChain("voter", 44, uniform_noise_matrix(2, 0.4))


class TestRuleGroupLaws:
    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_laws_are_row_stochastic(self, rule, sample_size):
        noise = uniform_noise_matrix(2, 0.4)
        observation = observation_law(np.array([0.45, 0.30]), noise)
        laws = rule_group_laws(rule, observation, sample_size=sample_size)
        assert laws.shape == (3, 3)
        assert np.all(laws >= 0)
        assert np.allclose(laws.sum(axis=1), 1.0, atol=1e-12)
