"""The Chernoff certificate that lets a Stage-2 block skip its ``maj()`` law.

``majority_vote_miss_bound`` bounds the probability that ``maj()`` over
``L`` i.i.d. samples misses the dominant color.  A block of
``HeterogeneousCountsDeliveryModel`` whose rows all have ``voters * beta``
below float64 resolution draws from the point law on that color.  These
tests pin the bound's soundness against the exact dense law, and pin that
uncertified blocks draw exactly what they drew before the certificate
existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import balls_bins
from repro.network.balls_bins import HeterogeneousCountsDeliveryModel
from repro.network.pull_model import (
    dense_majority_vote_law,
    dense_vote_law_is_tractable,
    majority_vote_miss_bound,
)
from repro.noise.families import uniform_noise_matrix

#: Sample sizes per k, all within the dense law's budget (few distinct
#: sizes, so the composition tables are built once each).
SAMPLE_SIZES = {
    2: (1, 2, 3, 7, 20, 55, 150, 400, 1000),
    3: (1, 2, 5, 13, 34, 89, 233, 600),
    4: (1, 3, 8, 21, 55, 120),
    5: (1, 4, 10, 24, 36),
}


def random_color_law(rng, num_opinions):
    """A color law with zero cells, half of them pushed toward one color."""
    law = rng.dirichlet(np.full(num_opinions, rng.choice([0.2, 1.0, 5.0])))
    if rng.random() < 0.5:
        share = rng.uniform(0.0, 0.8)
        law = (1.0 - share) * law + share * np.eye(num_opinions)[
            rng.integers(num_opinions)
        ]
    zeros = rng.random(num_opinions) < 0.2
    zeros[rng.integers(num_opinions)] = False
    law[zeros] = 0.0
    return law / law.sum()


class TestMissBound:
    def test_bounds_the_exact_miss_probability(self):
        rng = np.random.default_rng(2024)
        cases = {}
        for _ in range(1200):
            num_opinions = int(rng.integers(2, 6))
            sample_size = int(rng.choice(SAMPLE_SIZES[num_opinions]))
            assert dense_vote_law_is_tractable(sample_size, num_opinions)
            cases.setdefault((num_opinions, sample_size), []).append(
                random_color_law(rng, num_opinions)
            )
        checked = informative = with_zeros = 0
        worst_ratio = 0.0
        for (num_opinions, sample_size), laws in cases.items():
            laws = np.asarray(laws)
            exact = dense_majority_vote_law(laws, sample_size)
            dominant, bound = majority_vote_miss_bound(laws, sample_size)
            others = np.ones(laws.shape, dtype=bool)
            others[np.arange(len(laws)), dominant] = False
            # Summed over the losing colors, not 1 - exact[i*], which
            # would cancel to rounding noise for dominated rows.
            miss = np.where(others, exact, 0.0).sum(axis=1)
            assert np.all(miss <= bound), (num_opinions, sample_size)
            checked += len(laws)
            informative += int(np.count_nonzero(bound < 1.0))
            with_zeros += int(np.count_nonzero((laws == 0).any(axis=1)))
            positive = bound > 0
            if positive.any():
                worst_ratio = max(
                    worst_ratio, float((miss[positive] / bound[positive]).max())
                )
        assert checked >= 1000
        assert informative >= 300 and with_zeros >= 200
        assert worst_ratio <= 1.0

    def test_zero_cell_term_is_exact(self):
        # P(X_2 >= X_1) with p_2 = 0 is P(X_1 = 0) = (1 - p_1)^L.
        dominant, bound = majority_vote_miss_bound(
            np.array([[0.75, 0.0, 0.25]]), 10
        )
        assert dominant.tolist() == [0]
        expected = 0.25**10 + (1.0 - (0.75**0.5 - 0.25**0.5) ** 2) ** 10
        assert bound[0] == pytest.approx(expected, rel=1e-12)

    def test_ties_and_empty_rows_are_never_certified(self):
        _, bound = majority_vote_miss_bound(
            np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]), 500
        )
        assert np.all(bound >= 1.0)

    def test_per_row_sample_sizes(self):
        laws = np.array([[0.6, 0.4], [0.6, 0.4]])
        _, both = majority_vote_miss_bound(laws, np.array([10, 100]))
        _, small = majority_vote_miss_bound(laws[:1], 10)
        _, large = majority_vote_miss_bound(laws[1:], 100)
        assert both.tolist() == [small[0], large[0]]


def dominated_row(num_opinions):
    return [10**6] + [1] * (num_opinions - 1)


def near_tie_row(num_opinions):
    return [3000, 3000] + [1000] * (num_opinions - 2)


#: (k, L, the path an uncertified block of that size takes).
EXACT_PATHS = [(3, 35, "dense"), (3, 200, "dense"), (5, 201, "chunk")]


def two_blocks(num_opinions):
    """Block 0: two dominated rows; block 1: one near tie among them."""
    noise = uniform_noise_matrix(num_opinions, 0.3)
    model = HeterogeneousCountsDeliveryModel(
        [slice(0, 2), slice(2, 5)], [10**6, 10**6], [noise, noise]
    )
    histograms = np.array(
        [dominated_row(num_opinions)] * 3
        + [near_tie_row(num_opinions), dominated_row(num_opinions)]
    )
    return model, histograms


class TestPointPath:
    @pytest.mark.parametrize("num_opinions,sample_size,path", EXACT_PATHS)
    def test_only_fully_certified_blocks_take_the_point_law(
        self, monkeypatch, num_opinions, sample_size, path
    ):
        model, histograms = two_blocks(num_opinions)
        voters = np.full(5, 1000)
        sizes = [sample_size, sample_size]
        assert model.vote_paths(histograms, voters, sizes) == ["point", path]
        monkeypatch.setattr(balls_bins, "_POINT_LAW_MAX_MISS", -1.0)
        assert model.vote_paths(histograms, voters, sizes) == [path, path]

    @pytest.mark.parametrize("num_opinions,sample_size,path", EXACT_PATHS)
    def test_an_uncertified_block_draws_bitwise_as_before(
        self, monkeypatch, num_opinions, sample_size, path
    ):
        model, histograms = two_blocks(num_opinions)
        model.VOTE_CHUNK = 64
        voters = np.array([1000, 1000, 300, 200, 100])

        def votes():
            generators = [np.random.default_rng(seed) for seed in range(5)]
            drawn, _ = model.sample_vote_counts(
                histograms, voters, [sample_size, sample_size], generators
            )
            return drawn, [generator.random() for generator in generators]

        certified, certified_next = votes()
        monkeypatch.setattr(balls_bins, "_POINT_LAW_MAX_MISS", -1.0)
        exact, exact_next = votes()
        assert np.array_equal(certified[2:], exact[2:])
        assert certified_next[2:] == exact_next[2:]
        assert certified[:2].tolist() == [[1000] + [0] * (num_opinions - 1)] * 2
        if path != "chunk":
            # Opinion 1 dominates: the point law leaves each generator
            # where the exact law leaves it.
            assert np.array_equal(certified[:2], exact[:2])
            assert certified_next[:2] == exact_next[:2]

    def test_point_law_votes_the_dominant_color(self):
        noise = uniform_noise_matrix(3, 0.3)
        model = HeterogeneousCountsDeliveryModel(
            [slice(0, 2)], [10**6], [noise]
        )
        histograms = np.array([[1, 10**6, 1], [0, 0, 10**6]])
        voters = np.array([10**12, 7])
        assert model.vote_paths(histograms, voters, [1000]) == ["point"]
        for randomness in (
            [np.random.default_rng(1), np.random.default_rng(2)],
            np.random.default_rng(3),
        ):
            votes, paths = model.sample_vote_counts(
                histograms, voters, [1000], randomness
            )
            assert votes.tolist() == [[0, 10**12, 0], [0, 0, 7]]
            assert paths == ["point"]

    def test_the_certificate_is_computed_once_per_stage2_phase(
        self, monkeypatch
    ):
        from repro.network import pull_model
        from repro.sim import Scenario, simulate

        calls = []

        def counted(probabilities, sample_size):
            calls.append(len(probabilities))
            return majority_vote_miss_bound(probabilities, sample_size)

        monkeypatch.setattr(pull_model, "majority_vote_miss_bound", counted)
        result = simulate(
            Scenario(
                workload="plurality", num_nodes=10**5, num_opinions=3,
                epsilon=0.3, bias=0.1, engine="counts", num_trials=4, seed=1,
            )
        )
        phases = len(result.provenance["stage2_vote_paths"])
        assert phases > 1
        assert len(calls) == phases


def per_block_vote_paths(model, noisy_histograms, num_voters, sample_sizes):
    """The per-block loop ``vote_paths`` replaced: ``certified[sl].all()``
    and the exact path, one block at a time."""
    voters = np.asarray(num_voters, dtype=np.int64)
    row_sample_sizes = np.repeat(
        np.asarray(sample_sizes, dtype=np.int64),
        [sl.stop - sl.start for sl in model.block_slices],
    )
    _, bounds = majority_vote_miss_bound(
        model.vote_probabilities(noisy_histograms), row_sample_sizes
    )
    certified = voters * bounds <= balls_bins._POINT_LAW_MAX_MISS
    return [
        "point"
        if certified[sl].all()
        else model._resolve_vote_path(int(sample_sizes[block]))
        for block, sl in enumerate(model.block_slices)
    ]


def mixed_batch(num_opinions, seed):
    """Ten blocks of 1 to 6 rows (one-row blocks first and last) with
    mostly dominated rows, a few near ties, and per-block sample sizes."""
    rng = np.random.default_rng(seed)
    sizes = [1, *rng.integers(1, 7, size=8).tolist(), 1]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    slices = [slice(int(a), int(b)) for a, b in zip(starts, starts[1:])]
    noise = uniform_noise_matrix(num_opinions, 0.3)
    model = HeterogeneousCountsDeliveryModel(
        slices, [10**6] * len(slices), [noise] * len(slices)
    )
    histograms = np.array([
        dominated_row(num_opinions)
        if rng.random() < 0.85
        else near_tie_row(num_opinions)
        for _ in range(int(starts[-1]))
    ])
    voters = rng.choice([0, 1, 1000, 10**6], size=len(histograms))
    sample_sizes = rng.choice([35, 201, 665], size=len(slices)).tolist()
    return model, histograms, voters, sample_sizes


class TestBlockDecision:
    """``vote_paths`` decides every block with one ``reduceat`` and must
    name the paths the per-block loop named."""

    @pytest.mark.parametrize("num_opinions", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_reduceat_matches_the_per_block_loop(self, num_opinions, seed):
        model, histograms, voters, sizes = mixed_batch(num_opinions, seed)
        assert model.vote_paths(
            histograms, voters, sizes
        ) == per_block_vote_paths(model, histograms, voters, sizes)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_batch_mixes_certified_and_exact_blocks(self, seed):
        model, histograms, voters, sizes = mixed_batch(3, seed)
        paths = model.vote_paths(histograms, voters, sizes)
        assert "point" in paths and set(paths) - {"point"}, paths
