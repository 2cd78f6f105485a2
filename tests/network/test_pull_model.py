"""Tests for repro.network.pull_model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.pull_model import (
    EnsemblePullModel,
    UniformPullModel,
    _majority_vote_table,
    majority_vote_law,
)
from repro.noise.families import identity_matrix, uniform_noise_matrix


class TestObserve:
    def test_every_node_observes_sample_size_when_all_opinionated(self, rng):
        model = UniformPullModel(50, identity_matrix(3), rng)
        opinions = rng.integers(1, 4, size=50)
        received = model.observe(opinions, sample_size=4)
        assert np.all(received.totals() == 4)

    def test_undecided_targets_yield_fewer_observations(self, rng):
        model = UniformPullModel(100, identity_matrix(2), rng)
        opinions = np.zeros(100, dtype=int)
        opinions[:20] = 1  # only 20% opinionated
        received = model.observe(opinions, sample_size=5)
        mean_observed = received.totals().mean()
        assert mean_observed == pytest.approx(5 * 0.2, abs=0.4)

    def test_exclude_undecided_targets(self, rng):
        model = UniformPullModel(100, identity_matrix(2), rng)
        opinions = np.zeros(100, dtype=int)
        opinions[:10] = 2
        received = model.observe(opinions, sample_size=3, include_undecided=False)
        assert np.all(received.totals() == 3)
        assert received.opinion_totals()[0] == 0

    def test_observation_distribution_matches_population(self, rng):
        model = UniformPullModel(300, identity_matrix(2), rng)
        opinions = np.array([1] * 210 + [2] * 90)
        received = model.observe(opinions, sample_size=10)
        fraction_one = received.opinion_totals()[0] / received.total_messages()
        assert fraction_one == pytest.approx(0.7, abs=0.03)

    def test_noise_applied_to_observations(self, rng):
        epsilon = 0.3
        model = UniformPullModel(300, uniform_noise_matrix(2, epsilon), rng)
        opinions = np.ones(300, dtype=int)
        received = model.observe(opinions, sample_size=10)
        fraction_one = received.opinion_totals()[0] / received.total_messages()
        assert fraction_one == pytest.approx(0.5 + epsilon, abs=0.03)

    def test_wrong_length_rejected(self, rng):
        model = UniformPullModel(10, identity_matrix(2), rng)
        with pytest.raises(ValueError):
            model.observe(np.ones(5, dtype=int), 2)

    def test_out_of_range_opinion_rejected(self, rng):
        model = UniformPullModel(10, identity_matrix(2), rng)
        with pytest.raises(ValueError):
            model.observe(np.full(10, 3), 2)

    def test_all_undecided_population(self, rng):
        model = UniformPullModel(10, identity_matrix(2), rng)
        received = model.observe(np.zeros(10, dtype=int), 3)
        assert received.total_messages() == 0

    def test_requires_noise_matrix(self):
        with pytest.raises(TypeError):
            UniformPullModel(5, np.eye(2))


class TestObserveSingle:
    def test_single_observation_range(self, rng):
        model = UniformPullModel(40, identity_matrix(3), rng)
        opinions = rng.integers(1, 4, size=40)
        observed = model.observe_single(opinions)
        assert observed.shape == (40,)
        assert observed.min() >= 1 and observed.max() <= 3

    def test_single_observation_zero_when_target_undecided(self, rng):
        model = UniformPullModel(40, identity_matrix(3), rng)
        observed = model.observe_single(np.zeros(40, dtype=int))
        assert np.all(observed == 0)

    def test_single_observation_matches_population_mix(self, rng):
        model = UniformPullModel(5000, identity_matrix(2), rng)
        opinions = np.array([1] * 4000 + [2] * 1000)
        observed = model.observe_single(opinions)
        fraction_one = float(np.mean(observed == 1))
        assert fraction_one == pytest.approx(0.8, abs=0.03)


class TestEnsembleObserve:
    """The batched pull engine must match the per-message engine in
    distribution (it samples the compound observation channel directly)."""

    def test_counts_shape_and_totals(self, rng):
        model = EnsemblePullModel(50, identity_matrix(3))
        opinions = np.tile(rng.integers(1, 4, size=50), (4, 1))
        received = model.observe(opinions, 4, rng)
        assert received.counts.shape == (4, 50, 3)
        assert np.all(received.totals() == 4)

    def test_undecided_targets_yield_fewer_observations(self, rng):
        model = EnsemblePullModel(400, identity_matrix(2))
        opinions = np.zeros((3, 400), dtype=int)
        opinions[:, :80] = 1  # 20% opinionated
        received = model.observe(opinions, 5, rng)
        assert received.totals().mean() == pytest.approx(5 * 0.2, abs=0.3)

    def test_observation_distribution_matches_single_trial_engine(self, rng):
        """Satellite check: identical distributions between the single-trial
        and ensemble observation engines (same mix, same noise)."""
        epsilon = 0.3
        noise = uniform_noise_matrix(2, epsilon)
        opinions = np.array([1] * 350 + [2] * 150)
        single = UniformPullModel(500, noise, rng)
        batched = EnsemblePullModel(500, noise)
        single_totals = np.zeros(2)
        for _ in range(8):
            single_totals += single.observe(opinions, 10).opinion_totals()
        received = batched.observe(np.tile(opinions, (8, 1)), 10, rng)
        batched_totals = received.counts.sum(axis=(0, 1))
        single_share = single_totals[0] / single_totals.sum()
        batched_share = batched_totals[0] / batched_totals.sum()
        assert single_share == pytest.approx(batched_share, abs=0.02)
        # And both match the analytic noisy share.
        expected = 0.7 * (0.5 + epsilon) + 0.3 * (0.5 - epsilon)
        assert batched_share == pytest.approx(expected, abs=0.02)

    def test_exclude_undecided_targets(self, rng):
        model = EnsemblePullModel(100, identity_matrix(2))
        opinions = np.zeros((2, 100), dtype=int)
        opinions[:, :10] = 2
        received = model.observe(opinions, 3, rng, include_undecided=False)
        assert np.all(received.totals() == 3)
        assert received.counts[..., 0].sum() == 0

    def test_all_undecided_population(self, rng):
        model = EnsemblePullModel(10, identity_matrix(2))
        received = model.observe(np.zeros((3, 10), dtype=int), 3, rng)
        assert received.counts.sum() == 0
        votes = model.observe_single(np.zeros((3, 10), dtype=int), rng)
        assert np.all(votes == 0)

    def test_per_trial_streams_are_bitwise_stable(self):
        noise = uniform_noise_matrix(3, 0.3)
        opinions = np.tile(np.arange(60) % 4, (3, 1))
        model = EnsemblePullModel(60, noise)
        first = model.observe(opinions, 3, [1, 2, 3])
        second = model.observe(opinions, 3, [1, 2, 3])
        assert np.array_equal(first.counts, second.counts)
        single = model.observe(opinions[:1], 3, [2])
        assert np.array_equal(first.counts[1], single.counts[0])

    def test_rejects_bad_shapes(self, rng):
        model = EnsemblePullModel(10, identity_matrix(2))
        with pytest.raises(ValueError):
            model.observe(np.ones(10, dtype=int), 2, rng)
        with pytest.raises(ValueError):
            model.observe(np.ones((2, 5), dtype=int), 2, rng)
        with pytest.raises(ValueError):
            model.observe(np.full((2, 10), 3), 2, rng)
        with pytest.raises(TypeError):
            EnsemblePullModel(5, np.eye(2))


class TestEnsembleObserveSingle:
    def test_votes_match_population_mix(self, rng):
        model = EnsemblePullModel(3000, identity_matrix(2))
        opinions = np.tile(np.array([1] * 2400 + [2] * 600), (4, 1))
        votes = model.observe_single(opinions, rng)
        assert votes.shape == (4, 3000)
        assert float(np.mean(votes == 1)) == pytest.approx(0.8, abs=0.03)

    def test_distribution_matches_single_trial_engine(self, rng):
        """Satellite check for the one-observation fast path."""
        noise = uniform_noise_matrix(2, 0.25)
        opinions = np.array([1] * 300 + [0] * 100)
        single = UniformPullModel(400, noise, rng)
        batched = EnsemblePullModel(400, noise)
        single_votes = np.concatenate(
            [single.observe_single(opinions) for _ in range(10)]
        )
        batched_votes = batched.observe_single(np.tile(opinions, (10, 1)), rng)
        for value in (0, 1, 2):
            assert float(np.mean(single_votes == value)) == pytest.approx(
                float(np.mean(batched_votes == value)), abs=0.03
            )


class TestMajorityVoteTable:
    def test_table_is_a_probability_kernel(self):
        exponents, coefficients, vote_law = _majority_vote_table(3, 3)
        assert exponents.shape == (20, 4)  # C(3+3, 3) compositions
        assert np.all(exponents.sum(axis=1) == 3)
        assert np.allclose(vote_law.sum(axis=1), 1.0)
        # Multinomial coefficients sum to (k+1)^s under uniform q.
        assert coefficients.sum() == pytest.approx(4 ** 3)

    def test_fused_votes_match_observe_plus_majority(self, rng):
        """The fused sampler and observe()+majority_votes() realize the same
        vote distribution (the closed form vs. the two-step sampling)."""
        noise = uniform_noise_matrix(3, 0.3)
        model = EnsemblePullModel(4000, noise)
        opinions = np.tile(
            np.array([1] * 1800 + [2] * 1200 + [3] * 600 + [0] * 400), (2, 1)
        )
        fused = model.observe_majority_votes(opinions, 3, rng)
        received = model.observe(opinions, 3, rng)
        composed = received.majority_votes(rng)
        fused_hist = np.bincount(fused.ravel(), minlength=4) / fused.size
        composed_hist = (
            np.bincount(composed.ravel(), minlength=4) / composed.size
        )
        assert np.allclose(fused_hist, composed_hist, atol=0.025)

    def test_fused_votes_zero_only_without_observation(self, rng):
        model = EnsemblePullModel(200, identity_matrix(3))
        opinions = np.tile(np.arange(200) % 3 + 1, (3, 1))
        votes = model.observe_majority_votes(opinions, 5, rng)
        assert np.all(votes >= 1)  # fully opinionated: everyone observes

    @pytest.mark.parametrize("dead_cell", [True, False])
    @pytest.mark.parametrize(
        "num_opinions,sample_size", [(2, 40), (3, 12), (4, 6)]
    )
    def test_law_is_bitwise_the_full_composition_grid(
        self, rng, num_opinions, sample_size, dead_cell
    ):
        """With no "no opinion" mass the compositions that observe it are
        skipped (their probability is exactly 0); the law stays bitwise the
        evaluation over every composition."""
        probabilities = rng.dirichlet(np.ones(num_opinions + 1), size=8)
        if dead_cell:
            probabilities[:, 0] = 0.0  # Stage 2: no "no opinion" mass
        probabilities[:3, -1] = 0.0  # zero in some rows only: evaluated
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        exponents, coefficients, vote_law = _majority_vote_table(
            sample_size, num_opinions
        )
        # The m_0 = 0 compositions form the table's prefix.
        prefix = math.comb(sample_size + num_opinions - 1, num_opinions - 1)
        assert not exponents[:prefix, 0].any()
        assert exponents[prefix:, 0].all()
        full = (
            coefficients
            * np.prod(probabilities[:, None, :] ** exponents[None], axis=2)
        ) @ vote_law
        law = majority_vote_law(probabilities, sample_size)
        assert np.array_equal(law, full)
        assert np.allclose(law.sum(axis=1), 1.0)
