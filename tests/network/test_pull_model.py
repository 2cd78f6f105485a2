"""Tests for repro.network.pull_model."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from repro.network.pull_model import (
    EnsemblePullModel,
    UniformPullModel,
    _dense_majority_vote_table,
    _majority_vote_table,
    block_majority_vote_law,
    block_matmul,
    dense_vote_law_is_tractable,
    majority_vote_law,
    vote_table_is_tractable,
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


def _reference_vote_table(sample_size, num_opinions):
    """The closed-form table built composition by composition: the
    ``itertools.combinations`` stars-and-bars loop and a per-row
    ``vote_law`` loop."""
    width = num_opinions + 1
    compositions = []
    for dividers in combinations(range(sample_size + width - 1), width - 1):
        previous = -1
        parts = []
        for divider in dividers + (sample_size + width - 1,):
            parts.append(divider - previous - 1)
            previous = divider
        compositions.append(parts)
    exponents = np.asarray(compositions, dtype=np.int64)
    factorials = np.asarray(
        [math.factorial(value) for value in range(sample_size + 1)],
        dtype=float,
    )
    coefficients = math.factorial(sample_size) / factorials[exponents].prod(axis=1)
    vote_law = np.zeros((exponents.shape[0], width), dtype=float)
    opinion_counts = exponents[:, 1:]
    row_max = opinion_counts.max(axis=1)
    for row, top in enumerate(row_max):
        if top == 0:
            vote_law[row, 0] = 1.0
        else:
            tied = np.nonzero(opinion_counts[row] == top)[0]
            vote_law[row, tied + 1] = 1.0 / tied.size
    return exponents, coefficients, vote_law


def _grid_compositions(total, width):
    """The compositions of ``total`` into ``width`` parts, filtered out of
    the ``(total + 1)**(width - 1)`` ``np.indices`` grid (lexicographic)."""
    if width == 1:
        return np.asarray([[total]], dtype=np.int64)
    grid = np.indices((total + 1,) * (width - 1))
    partial = grid.reshape(width - 1, -1).T
    totals = partial.sum(axis=1)
    keep = totals <= total
    return np.concatenate(
        [partial[keep], (total - totals[keep])[:, np.newaxis]], axis=1
    ).astype(np.int64, copy=False)


def _log_factorials(sample_size):
    return np.concatenate(
        [[0.0], np.cumsum(np.log(np.arange(1, sample_size + 1)))]
    )


def _win_weights(compositions):
    """Uniform over each composition's most frequent colors."""
    row_max = compositions.max(axis=1)
    tied = compositions == row_max[:, np.newaxis]
    return tied / tied.sum(axis=1, keepdims=True)


def _reference_dense_table(sample_size, num_opinions):
    """The unsplit dense table filtered out of the grid."""
    compositions = _grid_compositions(sample_size, num_opinions)
    log_factorial = _log_factorials(sample_size)
    log_coefficients = log_factorial[sample_size] - log_factorial[
        compositions
    ].sum(axis=1)
    return (
        compositions.astype(float),
        log_coefficients,
        _win_weights(compositions),
    )


def _dense_layout(exponents, log_coefficients, win_weight):
    """The three arrays of the unsplit table in the two-operand layout:
    the exponents with the log coefficients as a last column, and the win
    weights."""
    return np.column_stack([exponents, log_coefficients]), win_weight


def _reference_split_table(sample_size, num_opinions):
    """The split dense table (``a = k // 2`` head colors) built block by
    block from grid-filtered compositions: per head size ``s`` the head
    compositions of ``s`` in reverse lexicographic order with
    ``log(L! / ((L - s)! Π x!))``, the tail compositions of ``L - s`` in
    lexicographic order with ``log((L - s)! / Π y!)``, and the win weights
    of the pairs ``(x, y)``, ``y`` major, enumerated with ``np.repeat`` and
    ``np.tile``.  Returns ``(tail, head, blocks, tail_starts,
    head_starts)``."""
    head_width = num_opinions // 2
    log_factorial = _log_factorials(sample_size)
    tails, heads, blocks = [], [], []
    for s in range(sample_size + 1):
        rest = sample_size - s
        x = _grid_compositions(s, head_width)[::-1]
        y = _grid_compositions(rest, num_opinions - head_width)
        heads.append(np.column_stack([
            x,
            (log_factorial[sample_size] - log_factorial[rest])
            - log_factorial[x].sum(axis=1),
        ]))
        tails.append(np.column_stack([
            y, log_factorial[rest] - log_factorial[y].sum(axis=1)
        ]))
        pairs = np.concatenate(
            [np.tile(x, (len(y), 1)), np.repeat(y, len(x), axis=0)], axis=1
        )
        blocks.append(
            _win_weights(pairs).reshape(len(y), len(x) * num_opinions)
        )
    starts = lambda parts: tuple(np.cumsum([0] + [len(p) for p in parts]).tolist())
    return (
        np.concatenate(tails),
        np.concatenate(heads),
        blocks,
        starts(tails),
        starts(heads),
    )


def _table_bytes(table):
    return (
        table.tail.nbytes
        + table.head.nbytes
        + sum(block.nbytes for block in table.win_weight)
    )


def _assert_tables_equal(built, reference):
    assert len(built) == len(reference)
    for array, expected in zip(built, reference):
        assert array.dtype == expected.dtype
        assert np.array_equal(array, expected)


_VOTE_TABLE_CASES = [
    (sample_size, num_opinions)
    for num_opinions in range(1, 7)
    for sample_size in range(1, 41)
    if vote_table_is_tractable(sample_size, num_opinions)
] + [
    (170, 2),
    (max(s for s in range(1, 171) if vote_table_is_tractable(s, 3)), 3),
]

_UNSPLIT_TABLE_CASES = [
    (sample_size, num_opinions)
    for num_opinions in range(1, 4)
    for sample_size in (1, 2, 3, 35, 36)
] + [(665, 3), (1413, 3), (3000, 2)]

_SPLIT_TABLE_CASES = [
    (sample_size, num_opinions)
    for num_opinions in (4, 5)
    for sample_size in (1, 2, 3, 35, 36)
] + [(124, 4), (17, 6), (13, 7), (11, 8)]


class TestCompositionTableBuilders:
    """Both composition tables come from one array-built enumerator.  The
    closed-form table equals the composition-by-composition builder it
    replaced; the dense table equals, array by array, value and dtype,
    the grid-filter builder for ``k <= 3`` (no head: the unsplit table)
    and a block-by-block grid-filter reference of the head/tail split
    for ``k >= 4``."""

    @pytest.mark.parametrize("sample_size,num_opinions", _VOTE_TABLE_CASES)
    def test_closed_form_table_is_bitwise_the_loop(
        self, sample_size, num_opinions
    ):
        _assert_tables_equal(
            _majority_vote_table.__wrapped__(sample_size, num_opinions),
            _reference_vote_table(sample_size, num_opinions),
        )

    @pytest.mark.parametrize("sample_size,num_opinions", _UNSPLIT_TABLE_CASES)
    def test_unsplit_dense_table_is_bitwise_the_grid_filter(
        self, sample_size, num_opinions
    ):
        assert dense_vote_law_is_tractable(sample_size, num_opinions)
        built = _dense_majority_vote_table.__wrapped__(sample_size, num_opinions)
        _assert_tables_equal(
            (built.tail, *built.win_weight),
            _dense_layout(*_reference_dense_table(sample_size, num_opinions)),
        )
        # The one block: no head colors, so one empty head composition
        # with log coefficient log(L! / L!) = 0.
        assert np.array_equal(built.head, [[0.0]])
        assert built.tail_starts == (0, len(built.tail))
        assert built.head_starts == (0, 1)
        # Column major: a block of rows of either operand is a BLAS
        # operand without a copy.
        assert built.tail.flags.f_contiguous
        assert built.win_weight[0].flags.f_contiguous

    @pytest.mark.parametrize("sample_size,num_opinions", _SPLIT_TABLE_CASES)
    def test_split_dense_table_is_bitwise_the_block_reference(
        self, sample_size, num_opinions
    ):
        assert dense_vote_law_is_tractable(sample_size, num_opinions)
        built = _dense_majority_vote_table.__wrapped__(sample_size, num_opinions)
        tail, head, blocks, tail_starts, head_starts = _reference_split_table(
            sample_size, num_opinions
        )
        _assert_tables_equal(
            (built.tail, built.head, *built.win_weight),
            (tail, head, *blocks),
        )
        assert built.tail_starts == tail_starts
        assert built.head_starts == head_starts
        assert built.tail.flags.f_contiguous and built.head.flags.f_contiguous
        assert all(block.flags.c_contiguous for block in built.win_weight)
        # Every composition of L into k parts exactly once.
        assert sum(block.size for block in built.win_weight) == (
            math.comb(sample_size + num_opinions - 1, num_opinions - 1)
            * num_opinions
        )

    @pytest.mark.parametrize("sample_size,num_opinions", [(35, 5), (665, 3)])
    def test_dense_build_allocates_no_transient_grid(
        self, sample_size, num_opinions
    ):
        """The build's peak traced memory stays below twice the table it
        returns (a grid filter peaks at 11x for k = 5, L = 35)."""
        tracemalloc.start()
        try:
            table = _dense_majority_vote_table.__wrapped__(
                sample_size, num_opinions
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * _table_bytes(table)

    @pytest.mark.parametrize("sample_size,num_opinions", [(35, 5), (665, 3)])
    def test_dense_build_makes_no_full_size_copy(
        self, sample_size, num_opinions
    ):
        """Built column by column and block by block, the build peaks near
        1.15x its table (4.1 MB for 3.6 MB at k = 5, L = 35).  A ``(C, k)``
        float temporary or a copy of the compositions into the
        column-major layout, as the row-major build made, adds about
        0.45x."""
        tracemalloc.start()
        try:
            table = _dense_majority_vote_table.__wrapped__(
                sample_size, num_opinions
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * _table_bytes(table)


def _per_block(function, rows, block_sizes):
    """``function(index, rows of block index)``, concatenated over
    consecutive blocks of ``block_sizes`` rows."""
    edges = np.cumsum([0, *block_sizes])
    return np.concatenate(
        [
            function(index, rows[edges[index] : edges[index + 1]])
            for index in range(len(block_sizes))
        ]
    )


class TestBlockKernels:
    """The stacked per-block kernels of the merged dynamics loop are bitwise
    the per-block calls they replace."""

    @pytest.mark.parametrize("blocks", [1, 2, 32])
    @pytest.mark.parametrize("rows", [1, 4, 7])
    @pytest.mark.parametrize("num_opinions", [2, 3, 5])
    def test_stacked_matmul_is_bitwise_per_block(
        self, blocks, rows, num_opinions
    ):
        rng = np.random.default_rng([blocks, rows, num_opinions])
        shares = rng.dirichlet(np.ones(num_opinions), size=blocks * rows)
        noise = np.stack(
            [
                uniform_noise_matrix(num_opinions, eps).matrix
                for eps in rng.uniform(0.01, 0.4, size=blocks)
            ]
        )
        stacked = block_matmul(shares, noise, [(blocks, rows)])
        expected = _per_block(
            lambda index, block: block @ noise[index], shares, [rows] * blocks
        )
        assert np.array_equal(stacked, expected)

    @pytest.mark.parametrize("blocks", [1, 2, 32])
    @pytest.mark.parametrize("rows", [1, 4, 7])
    @pytest.mark.parametrize("num_opinions", [2, 3, 5])
    def test_merged_composition_step_is_bitwise_per_block(
        self, blocks, rows, num_opinions
    ):
        """Every other block has no "no opinion" mass, so alone it takes
        the m_0 = 0 prefix while the merged call evaluates the full grid."""
        rng = np.random.default_rng([blocks, rows, num_opinions, 1])
        probabilities = rng.dirichlet(np.ones(num_opinions + 1), size=blocks * rows)
        for block in range(0, blocks, 2):
            probabilities[block * rows : (block + 1) * rows, 0] = 0.0
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        law = block_majority_vote_law(probabilities, 5, [(blocks, rows)])
        expected = _per_block(
            lambda _, block: majority_vote_law(block, 5),
            probabilities,
            [rows] * blocks,
        )
        assert np.array_equal(law, expected)

    def test_runs_of_unequal_blocks(self):
        block_sizes = [4, 4, 3, 1, 1, 4, 7]
        runs = [(2, 4), (1, 3), (2, 1), (1, 4), (1, 7)]
        rng = np.random.default_rng(5)
        probabilities = rng.dirichlet(np.ones(4), size=sum(block_sizes))
        noise = rng.random((len(block_sizes), 3, 3))
        assert np.array_equal(
            block_matmul(probabilities[:, 1:], noise, runs),
            _per_block(
                lambda index, block: block @ noise[index],
                probabilities[:, 1:],
                block_sizes,
            ),
        )
        assert np.array_equal(
            block_majority_vote_law(probabilities, 3, runs),
            _per_block(
                lambda _, block: majority_vote_law(block, 3),
                probabilities,
                block_sizes,
            ),
        )

    def test_runs_must_cover_the_rows(self):
        with pytest.raises(ValueError, match="do not cover"):
            block_matmul(np.ones((5, 2)), np.ones((2, 2, 2)), [(2, 2)])
        with pytest.raises(ValueError, match="do not cover"):
            block_matmul(np.ones((4, 2)), np.ones((3, 2, 2)), [(2, 2)])
        with pytest.raises(ValueError, match="intractable"):
            block_majority_vote_law(np.full((1, 4), 0.25), 10**4, [(1, 1)])
