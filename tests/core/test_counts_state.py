"""Tests for the counts (sufficient-statistics) state types.

Covers construction/validation, the round-trips from the per-node state
types, agreement of every derived quantity with the per-node computations,
and the int64 dtype-safety regression for populations beyond ``2**31``
nodes (the counts engines must not silently wrap on platforms whose
default int is 32-bit).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import (
    CountsState,
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
)
from repro.core.state import opinion_counts_matrix


class TestCountsState:
    def test_round_trip_from_population_state(self, rng):
        state = PopulationState.from_counts(
            50, {1: 20, 2: 10, 3: 5}, 3, rng
        )
        counts = CountsState.from_state(state)
        assert counts.num_nodes == 50
        assert counts.num_opinions == 3
        assert np.array_equal(counts.opinion_counts(), [20, 10, 5])
        assert counts.opinionated_count() == 35
        assert counts.opinionated_fraction() == pytest.approx(0.7)
        back = counts.to_population_state(rng)
        assert np.array_equal(back.opinion_counts(), [20, 10, 5])

    def test_derived_quantities_match_population_state(self, rng):
        state = PopulationState.from_counts(
            40, {1: 18, 2: 12, 3: 4}, 3, rng
        )
        counts = CountsState.from_state(state)
        for opinion in (1, 2, 3):
            assert counts.bias_toward(opinion) == pytest.approx(
                state.bias_toward(opinion)
            )
        assert counts.plurality_opinion() == state.plurality_opinion()
        assert np.allclose(
            counts.opinion_distribution(), state.opinion_distribution()
        )

    def test_single_source_and_consensus(self):
        counts = CountsState.single_source(10, 3, 2)
        assert np.array_equal(counts.counts, [0, 1, 0])
        assert not counts.has_consensus_on(2)
        full = CountsState([0, 10, 0], 10)
        assert full.has_consensus_on(2)
        assert not full.has_consensus_on(1)
        assert not full.has_consensus_on(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CountsState([5, 6], 10)  # sums past num_nodes
        with pytest.raises(ValueError):
            CountsState([-1, 2], 10)
        with pytest.raises(ValueError):
            CountsState([[1, 2]], 10)  # not a vector
        with pytest.raises(ValueError):
            CountsState.single_source(10, 3, 4)

    def test_copy_and_equality(self):
        counts = CountsState([3, 4], 10)
        other = counts.copy()
        assert counts == other
        other.counts[0] += 1
        assert counts != other


class TestEnsembleCountsState:
    def test_round_trip_from_ensemble(self, rng):
        state = PopulationState.from_counts(
            30, {1: 12, 2: 9, 3: 3}, 3, rng
        )
        ensemble = EnsembleState.from_state(state, 5)
        counts = EnsembleCountsState.from_ensemble(ensemble)
        assert counts.num_trials == 5
        assert counts.num_nodes == 30
        assert np.array_equal(counts.counts, ensemble.opinion_counts())
        back = counts.to_ensemble_state(rng)
        assert np.array_equal(back.opinion_counts(), counts.counts)

    def test_derived_quantities_match_ensemble(self, rng):
        opinions = rng.integers(0, 4, size=(6, 40))
        ensemble = EnsembleState(opinions, 3)
        counts = EnsembleCountsState.from_ensemble(ensemble)
        assert np.array_equal(
            counts.opinionated_counts(), ensemble.opinionated_counts()
        )
        assert np.allclose(
            counts.opinionated_fractions(), ensemble.opinionated_fractions()
        )
        assert np.allclose(
            counts.opinion_distributions(), ensemble.opinion_distributions()
        )
        for opinion in (1, 2, 3):
            assert np.allclose(
                counts.bias_toward(opinion), ensemble.bias_toward(opinion)
            )
            assert np.array_equal(
                counts.consensus_mask(opinion),
                ensemble.consensus_mask(opinion),
            )
            assert np.allclose(
                counts.correct_fractions(opinion),
                ensemble.correct_fractions(opinion),
            )
        assert np.array_equal(
            counts.plurality_opinions(), ensemble.plurality_opinions()
        )
        assert (
            counts.pooled_plurality_opinion()
            == ensemble.pooled_plurality_opinion()
        )

    def test_undecided_counts(self):
        counts = EnsembleCountsState(np.array([[3, 4], [0, 0]]), 10)
        assert np.array_equal(counts.undecided_counts(), [3, 10])
        assert counts.undecided_counts().dtype == np.int64

    def test_tiling_constructors(self):
        single = CountsState([2, 3], 10)
        tiled = EnsembleCountsState.from_counts_state(single, 4)
        assert tiled.num_trials == 4
        assert np.array_equal(tiled.counts, np.tile([2, 3], (4, 1)))
        state = PopulationState.from_counts(10, {1: 2, 2: 3}, 2, shuffle=False)
        assert EnsembleCountsState.from_state(state, 4) == tiled

    def test_trial_state(self):
        counts = EnsembleCountsState(np.array([[3, 4], [1, 0]]), 10)
        trial = counts.trial_state(1)
        assert isinstance(trial, CountsState)
        assert np.array_equal(trial.counts, [1, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleCountsState(np.array([[6, 6]]), 10)
        with pytest.raises(ValueError):
            EnsembleCountsState(np.array([[-1, 2]]), 10)
        with pytest.raises(ValueError):
            EnsembleCountsState(np.array([1, 2]), 10)
        with pytest.raises(ValueError):
            EnsembleCountsState(np.zeros((0, 2), dtype=np.int64), 10)
        with pytest.raises(ValueError):
            EnsembleCountsState(np.array([[1, 2]]), 10).bias_toward(3)


class TestInt64DtypeSafety:
    """Regression: count hot paths stay int64 end-to-end so populations
    beyond ``2**31`` nodes cannot silently overflow where the platform
    default int is 32-bit."""

    #: A mocked huge-population count matrix: one trial holds > 2**31
    #: supporters of a single opinion, another splits > 2**32 across two.
    HUGE = np.array(
        [
            [2**31 + 7, 2**30, 0],
            [2**32, 2**31, 2**31],
        ],
        dtype=np.int64,
    )
    HUGE_NODES = 2**34

    def test_ensemble_counts_state_accepts_huge_counts(self):
        counts = EnsembleCountsState(self.HUGE, self.HUGE_NODES)
        assert counts.counts.dtype == np.int64
        totals = counts.opinionated_counts()
        assert totals.dtype == np.int64
        assert int(totals[1]) == 2**32 + 2**31 + 2**31
        undecided = counts.undecided_counts()
        assert undecided.dtype == np.int64
        assert int(undecided[0]) == self.HUGE_NODES - (2**31 + 7 + 2**30)
        assert counts.plurality_opinions().tolist() == [1, 1]
        # Bias arithmetic happens in float but from exact int64 counts.
        assert counts.bias_toward(1)[0] == pytest.approx(
            ((2**31 + 7) - 2**30) / self.HUGE_NODES
        )

    def test_counts_state_consensus_at_huge_n(self):
        full = CountsState([0, 2**33], 2**33)
        assert full.has_consensus_on(2)
        assert full.opinionated_count() == 2**33

    def test_counts_voter_round_is_exact_at_huge_n(self):
        from repro.noise.families import uniform_noise_matrix
        from repro.sim.engines import build_dynamics

        # Fully opinionated rows: under the voter rule every node ends the
        # round opinionated, so the new counts must sum to n exactly.
        start = EnsembleCountsState(
            np.array(
                [[2**33, 2**32 + 5, 2**32 - 5], [2**32, 2**32, 2**33]],
                dtype=np.int64,
            ),
            self.HUGE_NODES,
        )
        dynamic = build_dynamics(
            "counts", "voter", self.HUGE_NODES, uniform_noise_matrix(3, 0.3), 0
        )
        result = dynamic.run(start, 1, stop_at_consensus=False)
        counts = result.final_states.counts
        assert counts.dtype == np.int64
        assert counts.sum(axis=1).tolist() == [self.HUGE_NODES] * 2
        assert result.rounds_executed.tolist() == [1, 1]

    def test_opinion_counts_matrix_returns_int64(self):
        opinions = np.array([[0, 1, 2, 2], [1, 1, 1, 0]])
        counts = opinion_counts_matrix(opinions, 2)
        assert counts.dtype == np.int64

    def test_population_opinion_counts_returns_int64(self):
        state = PopulationState([0, 1, 2, 2], 2)
        assert state.opinion_counts().dtype == np.int64

    def test_ensemble_opinion_counts_returns_int64(self):
        ensemble = EnsembleState(np.array([[0, 1, 2, 2]]), 2)
        assert ensemble.opinion_counts().dtype == np.int64
