"""Seed-reproducibility regressions for the bounded ``VOTE_CHUNK`` sampler.

``HeterogeneousCountsDeliveryModel.sample_vote_counts`` falls back to
chunked per-voter composition sampling whenever neither the closed-form
nor the dense ``maj()`` table is tractable.  The main closed-form path is
pinned elsewhere; these tests pin the *fallback*: bitwise-identical
results under a fixed seed for voter counts on every side of a chunk
boundary, per-trial stream isolation, and golden draws that freeze the
chunk loop's randomness-consumption order (multinomial compositions,
then uniform tie-break keys, per chunk).

``VOTE_CHUNK`` is monkeypatched small so the boundary cases are cheap;
the sampler reads it through ``self``, so the patch is honored.  The
dense large-sample vote law (which would normally absorb this operating
point — it exists precisely to spare tractable ``(L, k)`` pairs from the
chunk loop) is monkeypatched *off* so the fallback itself stays pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import pull_model
from repro.network.balls_bins import HeterogeneousCountsDeliveryModel
from repro.network.pull_model import (
    dense_vote_law_is_tractable,
    vote_table_is_tractable,
)
from repro.noise.families import uniform_noise_matrix

# Past the exact maj() composition-table budget -> the chunked fallback.
FALLBACK_SAMPLE_SIZE = 200
SMALL_CHUNK = 8


@pytest.fixture
def model(monkeypatch):
    """``model(histograms, voters, random_state)``: one block's vote tallies.

    ``random_state`` is a shared generator or one seed per row.
    """
    monkeypatch.setattr(
        HeterogeneousCountsDeliveryModel, "VOTE_CHUNK", SMALL_CHUNK
    )
    # Force the vote-path choice past "dense" so the chunk loop stays the
    # sampler under test.
    monkeypatch.setattr(pull_model, "_DENSE_VOTE_LAW_MAX_COMPOSITIONS", 0)
    noise = uniform_noise_matrix(3, 0.3)

    def sample(histograms, voters, random_state):
        rows = len(histograms)
        delivery = HeterogeneousCountsDeliveryModel(
            [slice(0, rows)], [50], [noise]
        )
        if isinstance(random_state, list):
            random_state = [np.random.default_rng(seed) for seed in random_state]
        votes, paths = delivery.sample_vote_counts(
            histograms, voters, [FALLBACK_SAMPLE_SIZE], random_state
        )
        assert paths == ["chunk"]
        return votes

    return sample


def test_operating_point_actually_uses_the_fallback():
    assert not vote_table_is_tractable(FALLBACK_SAMPLE_SIZE, 3)
    # Unpatched, the dense law covers this point; the fixture disables it.
    assert dense_vote_law_is_tractable(FALLBACK_SAMPLE_SIZE, 3)


@pytest.mark.parametrize(
    "num_voters",
    [SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK, 2 * SMALL_CHUNK + 1],
)
def test_shared_generator_is_bitwise_reproducible_at_chunk_boundaries(
    model, num_voters
):
    histograms = np.array([[40, 30, 20]])
    voters = np.array([num_voters])
    first = model(histograms, voters, np.random.default_rng(7))
    second = model(histograms, voters, np.random.default_rng(7))
    assert np.array_equal(first, second)
    assert first.sum() == num_voters


@pytest.mark.parametrize(
    "num_voters", [SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]
)
def test_per_trial_seeds_are_bitwise_reproducible_at_chunk_boundaries(
    model, num_voters
):
    histograms = np.array([[40, 30, 20], [25, 25, 10]])
    voters = np.array([num_voters, 2 * SMALL_CHUNK + 1])
    first = model(histograms, voters, [3, 5])
    second = model(histograms, voters, [3, 5])
    assert np.array_equal(first, second)
    assert np.array_equal(first.sum(axis=1), voters)


def test_per_trial_streams_are_isolated_across_trials(model):
    """Trial 0's votes must not depend on how much trial 1 samples."""
    histograms = np.array([[40, 30, 20], [25, 25, 10]])
    few = model(
        histograms,
        np.array([2 * SMALL_CHUNK + 1, 3]),
        [17, 19],
    )
    many = model(
        histograms,
        np.array([2 * SMALL_CHUNK + 1, 3 * SMALL_CHUNK]),
        [17, 19],
    )
    assert np.array_equal(few[0], many[0])


def test_zero_voters_consume_no_randomness(model):
    """A zero-voter trial leaves its per-trial stream untouched."""
    histograms = np.array([[40, 30, 20], [25, 25, 10]])
    with_empty = model(histograms, np.array([0, SMALL_CHUNK + 1]), [23, 29])
    alone = model(histograms[1:], np.array([SMALL_CHUNK + 1]), [29])
    assert np.array_equal(with_empty[0], np.zeros(3, dtype=np.int64))
    assert np.array_equal(with_empty[1], alone[0])


class TestGoldenDraws:
    """Freeze the fallback's randomness-consumption order.

    Any refactor that reorders the chunk loop's draws (compositions
    before tie-break keys, chunk by chunk) changes these values and must
    be treated as a reproducibility break, not a cosmetic change.
    """

    HISTOGRAMS = np.array([[40, 30, 20], [25, 25, 10]])
    VOTERS = np.array([20, 9])  # chunks of 8, 8, 4 and 8, 1

    def test_shared_generator_golden(self, model):
        votes = model(
            self.HISTOGRAMS,
            self.VOTERS,
            np.random.default_rng(123),
        )
        assert votes.tolist() == [[18, 2, 0], [5, 4, 0]]

    def test_per_trial_seeds_golden(self, model):
        votes = model(self.HISTOGRAMS, self.VOTERS, [7, 11])
        assert votes.tolist() == [[19, 1, 0], [4, 5, 0]]
