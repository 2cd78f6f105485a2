"""Tests for the batched (R, n, k) delivery path of the three engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.balls_bins import BallsIntoBinsProcess, ensemble_recolor_and_throw
from repro.network.delivery import deliver_ensemble_phase, supports_ensemble_delivery
from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.network.poisson_model import PoissonizedProcess
from repro.network.push_model import UniformPushModel
from repro.network.topology import GraphPushModel, standard_topology

NUM_NODES = 50
NUM_TRIALS = 4


def make_engines(noise, rng):
    return [
        UniformPushModel(NUM_NODES, noise, rng),
        BallsIntoBinsProcess(NUM_NODES, noise, rng),
        PoissonizedProcess(NUM_NODES, noise, rng),
    ]


class TestEngineEnsemblePhases:
    def test_all_complete_graph_engines_support_ensembles(self, uniform3, rng):
        for engine in make_engines(uniform3, rng):
            assert supports_ensemble_delivery(engine)

    def test_topology_engine_does_not(self, uniform3, rng):
        graph = standard_topology("cycle", 10)
        assert not supports_ensemble_delivery(GraphPushModel(graph, uniform3, rng))

    def test_shapes_and_dtype(self, uniform3, rng):
        histograms = np.array([[5, 0, 3]] * NUM_TRIALS)
        for engine in make_engines(uniform3, rng):
            received = engine.run_ensemble_phase_from_senders(histograms, 4, rng)
            assert isinstance(received, EnsembleReceivedMessages)
            assert received.counts.shape == (NUM_TRIALS, NUM_NODES, 3)
            assert received.counts.dtype == np.int64
            assert received.num_trials == NUM_TRIALS
            assert received.num_nodes == NUM_NODES
            assert received.num_opinions == 3

    def test_push_and_balls_bins_conserve_messages(self, uniform3, rng):
        histograms = np.array([[7, 2, 0], [0, 0, 0], [1, 1, 1], [0, 9, 4]])
        num_rounds = 3
        for engine in make_engines(uniform3, rng)[:2]:
            received = engine.run_ensemble_phase_from_senders(
                histograms, num_rounds, rng
            )
            assert np.array_equal(
                received.total_messages(), histograms.sum(axis=1) * num_rounds
            )

    def test_identity_noise_preserves_colors(self, identity3, rng):
        histograms = np.array([[6, 0, 2], [0, 3, 0]])
        for engine in [
            UniformPushModel(NUM_NODES, identity3, rng),
            BallsIntoBinsProcess(NUM_NODES, identity3, rng),
        ]:
            received = engine.run_ensemble_phase_from_senders(histograms, 2, rng)
            assert np.array_equal(
                received.counts.sum(axis=1), histograms * 2
            )

    def test_per_trial_generators_are_reproducible(self, uniform3, rng):
        histograms = np.array([[5, 5, 5]] * NUM_TRIALS)
        for engine in make_engines(uniform3, rng):
            first = engine.run_ensemble_phase_from_senders(
                histograms, 2, [10, 20, 30, 40]
            )
            second = engine.run_ensemble_phase_from_senders(
                histograms, 2, [10, 20, 30, 40]
            )
            assert np.array_equal(first.counts, second.counts)

    def test_per_trial_mode_rejects_wrong_length(self, uniform3, rng):
        histograms = np.array([[5, 5, 5]] * NUM_TRIALS)
        for engine in make_engines(uniform3, rng):
            with pytest.raises(ValueError):
                engine.run_ensemble_phase_from_senders(histograms, 2, [1, 2])

    def test_trial_independence_in_per_trial_mode(self, uniform3, rng):
        """A trial's deliveries depend only on its own seed, not its batch."""
        histograms = np.array([[5, 2, 1]] * NUM_TRIALS)
        for engine in make_engines(uniform3, rng):
            batch = engine.run_ensemble_phase_from_senders(
                histograms, 3, [10, 20, 30, 40]
            )
            solo = engine.run_ensemble_phase_from_senders(
                histograms[2:3], 3, [30]
            )
            assert np.array_equal(batch.counts[2], solo.counts[0])

    def test_rejects_bad_histogram_shapes(self, uniform3, rng):
        for engine in make_engines(uniform3, rng):
            with pytest.raises(ValueError):
                engine.run_ensemble_phase_from_senders(np.array([[1, 2]]), 1, rng)
            with pytest.raises(ValueError):
                engine.run_ensemble_phase_from_senders(
                    np.array([[1, -2, 0]]), 1, rng
                )

    def test_poisson_matches_expected_rate(self, identity3):
        rng = np.random.default_rng(5)
        engine = PoissonizedProcess(NUM_NODES, identity3, rng)
        histograms = np.tile([NUM_NODES * 4, 0, 0], (20, 1))
        received = engine.run_ensemble_phase_from_senders(histograms, 1, rng)
        # Each node receives Poisson(4) copies of opinion 1 on average.
        mean = received.counts[:, :, 0].mean()
        assert mean == pytest.approx(4.0, rel=0.1)

    def test_balls_bins_matches_sequential_distribution(self, uniform3):
        """Batched recolor-and-throw agrees with the sequential engine in mean."""
        histogram = np.array([40, 10, 0])
        batched_rng = np.random.default_rng(0)
        batched = ensemble_recolor_and_throw(
            NUM_NODES, uniform3, np.tile(histogram, (200, 1)), batched_rng
        )
        sequential_rng = np.random.default_rng(1)
        engine = BallsIntoBinsProcess(NUM_NODES, uniform3, sequential_rng)
        sequential = np.stack(
            [engine.run_phase(histogram).counts for _ in range(200)]
        )
        batched_totals = batched.counts.sum(axis=1).mean(axis=0)
        sequential_totals = sequential.sum(axis=1).mean(axis=0)
        assert np.allclose(batched_totals, sequential_totals, rtol=0.1, atol=1.0)


class TestDeliverEnsemblePhase:
    def test_histograms_exclude_undecided(self, identity3, rng):
        engine = UniformPushModel(6, identity3, rng)
        opinions = np.array([[0, 0, 1, 1, 2, 0], [3, 0, 0, 0, 0, 0]])
        received = deliver_ensemble_phase(engine, opinions, 2, rng)
        assert np.array_equal(
            received.counts.sum(axis=1), [[4, 2, 0], [0, 0, 2]]
        )

    def test_rejects_vector_opinions(self, uniform3, rng):
        engine = UniformPushModel(6, uniform3, rng)
        with pytest.raises(ValueError):
            deliver_ensemble_phase(engine, np.array([1, 2, 0]), 1, rng)

    def test_rejects_engine_without_batched_entry_point(self, uniform3, rng):
        graph = standard_topology("cycle", 10)
        engine = GraphPushModel(graph, uniform3, rng)
        with pytest.raises(TypeError):
            deliver_ensemble_phase(
                engine, np.zeros((2, 10), dtype=np.int64), 1, rng
            )


class TestEnsembleReceivedMessages:
    @pytest.fixture
    def received(self, rng) -> EnsembleReceivedMessages:
        return EnsembleReceivedMessages(rng.integers(0, 6, size=(5, 30, 4)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            EnsembleReceivedMessages(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            EnsembleReceivedMessages(-np.ones((2, 3, 4)))

    def test_totals_shape(self, received):
        assert received.totals().shape == (5, 30)
        assert received.total_messages().shape == (5,)

    def test_trial_extraction(self, received):
        trial = received.trial(3)
        assert isinstance(trial, ReceivedMessages)
        assert np.array_equal(trial.counts, received.counts[3])

    def test_uniform_choice_range_and_empty_rows(self, received, rng):
        choices = received.uniform_opinion_choice(rng)
        assert choices.shape == (5, 30)
        totals = received.totals()
        assert np.all(choices[totals == 0] == 0)
        assert np.all(choices[totals > 0] >= 1)
        assert np.all(choices <= 4)

    def test_uniform_choice_only_picks_received_opinions(self, rng):
        counts = np.zeros((2, 4, 3), dtype=np.int64)
        counts[:, :, 1] = 5
        received = EnsembleReceivedMessages(counts)
        choices = received.uniform_opinion_choice(rng)
        assert np.all(choices == 2)

    def test_subsample_caps_totals(self, received, rng):
        sampled = received.subsample(7, rng)
        assert sampled.shape == received.counts.shape
        assert np.all(sampled <= received.counts)
        expected = np.minimum(received.totals(), 7)
        assert np.array_equal(sampled.sum(axis=2), expected)

    def test_subsample_with_replacement_caps_totals(self, received, rng):
        sampled = received.subsample(7, rng, method="with_replacement")
        capped = received.totals() > 7
        assert np.all(sampled.sum(axis=2)[capped] == 7)

    def test_subsample_rejects_bad_arguments(self, received, rng):
        with pytest.raises(ValueError):
            received.subsample(0, rng)
        with pytest.raises(ValueError):
            received.subsample(3, rng, method="bogus")

    def test_subsample_matches_single_trial_distribution(self):
        """The batched hypergeometric draw has the correct marginal mean."""
        counts = np.tile(np.array([12, 6, 2], dtype=np.int64), (2000, 1, 1))
        received = EnsembleReceivedMessages(counts)
        sampled = received.subsample(10, np.random.default_rng(3))
        # Expectation of a multivariate hypergeometric: L * K_i / N.
        expected = 10 * np.array([12, 6, 2]) / 20
        assert np.allclose(sampled.mean(axis=(0, 1)), expected, rtol=0.05)

    def test_majority_votes_eligibility(self, received, rng):
        votes = received.majority_votes(rng, sample_size=8)
        totals = received.totals()
        assert np.all(votes[totals < 8] == 0)
        assert np.all(votes[totals >= 8] >= 1)

    def test_majority_votes_full_multiset(self, rng):
        counts = np.zeros((3, 5, 2), dtype=np.int64)
        counts[:, :, 0] = 4
        counts[:, :, 1] = 1
        counts[1, 2] = 0  # one silent node
        received = EnsembleReceivedMessages(counts)
        votes = received.majority_votes(rng)
        assert votes[1, 2] == 0
        mask = np.ones((3, 5), dtype=bool)
        mask[1, 2] = False
        assert np.all(votes[mask] == 1)

    def test_per_trial_mode_matches_solo_run(self, rng):
        """Sampling a trial inside a batch == sampling it alone (same seed)."""
        counts = rng.integers(0, 9, size=(4, 25, 3))
        received = EnsembleReceivedMessages(counts)
        solo = EnsembleReceivedMessages(counts[1:2])
        seeds = [7, 8, 9, 10]
        batch_votes = received.majority_votes(seeds, sample_size=5)
        solo_votes = solo.majority_votes([8], sample_size=5)
        assert np.array_equal(batch_votes[1], solo_votes[0])
        batch_choice = received.uniform_opinion_choice(seeds)
        solo_choice = solo.uniform_opinion_choice([8])
        assert np.array_equal(batch_choice[1], solo_choice[0])
