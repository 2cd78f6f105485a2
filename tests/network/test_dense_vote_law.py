"""The dense ``maj()`` vote law, Stage 2's one exact law.

``dense_majority_vote_law`` evaluates the exact vote pmf over opinionated
``k``-color compositions in log space, one chunked GEMM over all rows of a
block, covering sample sizes far past the closed-form table budget
(``sample_size <= 170``) and every size that budget admits.  From
``k = 4`` on it factors the pmf over a head and a tail of the colors.  It
must agree with the per-row loop it replaced and, on Stage-2 rows (no "no
opinion" mass), with the closed-form law, to a tolerance fixed from
float64 (``256 * eps``): the dense law is a different rounding of the same
law, not an approximation.  Without a head (``k <= 3``) it must be bitwise
the unsplit evaluator, kept here as the reference.  Its tractability
predicate must gate exactly the budgets it claims, so that no ``(L, k)``
moves onto or off the chunk sampler.
"""

from __future__ import annotations

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from repro.network import pull_model
from repro.network.balls_bins import HeterogeneousCountsDeliveryModel
from repro.network.pull_model import (
    _compositions,
    _size_runs,
    clear_vote_law_cache,
    dense_majority_vote_law,
    dense_vote_law_is_tractable,
    majority_vote_law,
    vote_table_is_tractable,
)
from repro.noise.families import uniform_noise_matrix
from repro.noise.matrix import NoiseMatrix

#: Law-value tolerance, fixed from float64 before any run: 256 ulps of 1.
TOLERANCE = 256 * np.finfo(float).eps


@pytest.fixture(autouse=True)
def _drop_tables():
    """Release the composition tables a test built (the closed-form LRU is
    unbounded, and the large dense tables take tens of MB)."""
    yield
    clear_vote_law_cache()
    _unsplit_operands.cache_clear()


def _row_loop_table(sample_size, num_opinions):
    """The dense table as the row loop read it: row-major float exponents,
    the log multinomial coefficients and the win weights, each built from
    :func:`_compositions` by the arithmetic the loop used then."""
    compositions = _compositions(sample_size, num_opinions)
    log_factorial = np.concatenate(
        [[0.0], np.cumsum(np.log(np.arange(1, sample_size + 1)))]
    )
    log_coefficients = log_factorial[sample_size] - log_factorial[
        compositions
    ].sum(axis=1)
    tied = compositions == compositions.max(axis=1, keepdims=True)
    win_weight = tied / tied.sum(axis=1, keepdims=True)
    return compositions.astype(float), log_coefficients, win_weight


def _row_loop_law(probabilities, sample_size):
    """The dense law as evaluated before the block GEMM: one GEMV, ``exp``
    and GEMV per row over the whole table (kept as the reference, with a
    table of its own, so the law's tolerance is checked against arithmetic
    that the law's table and GEMMs do not share)."""
    probabilities = np.asarray(probabilities, dtype=float)
    num_opinions = probabilities.shape[1]
    exponents, log_coefficients, win_weight = _row_loop_table(
        sample_size, num_opinions
    )
    law = np.empty(probabilities.shape, dtype=float)
    log_probabilities = np.full(num_opinions, pull_model._DENSE_LOG_ZERO)
    for row in range(probabilities.shape[0]):
        pvals = probabilities[row]
        positive = pvals > 0
        if not positive.any():
            law[row] = 1.0 / num_opinions
            continue
        log_probabilities.fill(pull_model._DENSE_LOG_ZERO)
        np.log(pvals, out=log_probabilities, where=positive)
        log_pmf = exponents @ log_probabilities
        log_pmf += log_coefficients
        pmf = np.exp(log_pmf, out=log_pmf)
        law[row] = pmf @ win_weight
    law = np.clip(law, 0.0, 1.0)
    row_sums = law.sum(axis=1, keepdims=True)
    return np.divide(
        law,
        row_sums,
        out=np.full(law.shape, 1.0 / num_opinions),
        where=row_sums > 0,
    )


@lru_cache(maxsize=1)
def _unsplit_operands(sample_size, num_opinions):
    """The unsplit evaluator's two column-major operands, from the row
    loop's table: the compositions with the log coefficients as a last
    column, and the win weights."""
    exponents, log_coefficients, win_weight = _row_loop_table(
        sample_size, num_opinions
    )
    return (
        np.asfortranarray(np.column_stack([exponents, log_coefficients])),
        np.asfortranarray(win_weight),
    )


def _unsplit_law(probabilities, sample_size, runs=None):
    """The dense law as evaluated before the head/tail split: per stack of
    equal-sized blocks, one ``(rows, k + 1) @ (k + 1, c)`` GEMM, ``exp``
    and ``@ win_weight`` per column chunk of the whole table (kept as the
    ``k <= 3`` reference, which the split evaluator must equal bitwise)."""
    probabilities = np.asarray(probabilities, dtype=float)
    rows, num_opinions = probabilities.shape
    if runs is None:
        runs = [(1, rows)]
    table, win_weight = _unsplit_operands(sample_size, num_opinions)
    compositions, width = table.shape
    log_probabilities = np.full((rows, width), pull_model._DENSE_LOG_ZERO)
    np.log(
        probabilities,
        out=log_probabilities[:, :num_opinions],
        where=probabilities > 0,
    )
    log_probabilities[:, num_opinions] = 1.0

    def chunk_width(size):
        return max(1, pull_model._DENSE_CHUNK_ELEMENTS // max(size, 1))

    stacks = []
    for count, size in runs:
        chunk = size * min(chunk_width(size), compositions)
        most = max(1, pull_model._DENSE_STACK_ELEMENTS // max(chunk, 1))
        stacks += [
            (min(most, count - done), size) for done in range(0, count, most)
        ]
    buffer = np.empty(
        max(
            count * size * min(chunk_width(size), compositions)
            for count, size in stacks
        )
    )
    law = np.zeros((rows, num_opinions))
    first = 0
    for count, size in stacks:
        last = first + count * size
        left = log_probabilities[first:last].reshape(count, size, width)
        block_law = law[first:last].reshape(count, size, num_opinions)
        for start in range(0, compositions, chunk_width(size)):
            stop = min(start + chunk_width(size), compositions)
            chunk = buffer[: count * size * (stop - start)].reshape(
                count, size, stop - start
            )
            np.matmul(left, table[start:stop].T, out=chunk)
            np.exp(chunk, out=chunk)
            block_law += chunk @ win_weight[start:stop]
        first = last
    np.clip(law, 0.0, 1.0, out=law)
    row_sums = law.sum(axis=1, keepdims=True)
    return np.divide(
        law,
        row_sums,
        out=np.full(law.shape, 1.0 / num_opinions),
        where=row_sums > 0,
    )


def _color_laws(rng, rows, num_opinions, empty_rows=True):
    """Random color laws; from 3 rows on, one row has a zero-probability
    color (``k >= 2``) and (``empty_rows``) one row is all zero."""
    laws = rng.dirichlet(np.full(num_opinions, 2.0), size=rows)
    if rows >= 3:
        if num_opinions >= 2:
            laws[1, rng.integers(num_opinions)] = 0.0
            laws[1] /= laws[1].sum()
        if empty_rows:
            laws[0] = 0.0
    return laws


def _edge_rows(num_opinions):
    """One color at ``1 - 1e-12`` and the rest equal (the first color, in
    the head from k = 4 on, and the last, in the tail), two zero colors
    (one in each part), the uniform row and an all-zero row."""
    dominant = np.full(num_opinions, 1e-12 / (num_opinions - 1))
    dominant[0] = 1.0 - 1e-12
    two_zero = np.full(num_opinions, 1.0 / (num_opinions - 2))
    two_zero[[1, num_opinions - 1]] = 0.0
    return np.array([
        dominant,
        dominant[::-1],
        two_zero,
        np.full(num_opinions, 1.0 / num_opinions),
        np.zeros(num_opinions),
    ])


#: The largest tractable sample size of each k from 4 to 8, where a head
#: or a tail factor is largest and smallest.
_EDGE_CASES = [(124, 4), (36, 5), (17, 6), (13, 7), (11, 8)]

_ROW_LOOP_CASES = [
    (sample_size, num_opinions)
    for num_opinions in range(2, 7)
    for sample_size in (1, 2, 3, 7, 20, 35, 60, 120, 300, 665, 1413)
    if dense_vote_law_is_tractable(sample_size, num_opinions)
]

_CLOSED_FORM_CASES = [
    (num_opinions, sample_size)
    for num_opinions in range(1, 7)
    for sample_size in range(1, 41)
    if vote_table_is_tractable(sample_size, num_opinions)
] + [(2, 170), (8, 9)]


class TestAgainstTheRowLoop:
    @pytest.mark.parametrize("sample_size,num_opinions", _ROW_LOOP_CASES)
    def test_block_gemm_matches_the_row_loop(self, sample_size, num_opinions):
        rng = np.random.default_rng(sample_size * 10 + num_opinions)
        for rows in (1, 3, 8, 16, 64):
            laws = _color_laws(rng, rows, num_opinions)
            law = dense_majority_vote_law(laws, sample_size)
            reference = _row_loop_law(laws, sample_size)
            assert law.shape == reference.shape
            assert np.max(np.abs(law - reference)) <= TOLERANCE, rows
            if rows >= 3:
                # The empty row comes back uniform; a zero color is never
                # voted.
                assert np.all(law[0] == 1.0 / num_opinions)
                assert law[1][laws[1] == 0].tolist() == [0.0]

    @pytest.mark.parametrize("sample_size,num_opinions", _EDGE_CASES)
    def test_the_dense_budget_edge_matches_the_row_loop(
        self, sample_size, num_opinions
    ):
        """At each k's largest tractable L the head factor reaches
        ``C(L, s)`` (``2^124`` at most) and the tail factor falls far
        below 1; no term may overflow or be lost to underflow, alone and
        among random rows (at 64 rows the largest head sizes of k = 6 and
        8 are tiled)."""
        assert dense_vote_law_is_tractable(sample_size, num_opinions)
        assert not dense_vote_law_is_tractable(sample_size + 1, num_opinions)
        edge = _edge_rows(num_opinions)
        rng = np.random.default_rng([sample_size, num_opinions])
        for rows in (5, 16, 64):
            laws = np.concatenate(
                [edge, _color_laws(rng, rows - 5, num_opinions)]
            )
            law = dense_majority_vote_law(laws, sample_size)
            reference = _row_loop_law(laws, sample_size)
            assert np.max(np.abs(law - reference)) <= TOLERANCE
            assert law[0, 0] == pytest.approx(1.0)
            assert law[1, -1] == pytest.approx(1.0)
            assert law[2, [1, -1]].tolist() == [0.0, 0.0]
            assert np.allclose(law[3], 1.0 / num_opinions)
            assert np.all(law[4] == 1.0 / num_opinions)

    def test_evaluation_allocates_no_rows_by_compositions_matrix(self):
        """With the table cached, a 16-row k = 5, L = 35 law stays far
        below its 10.5 MB ``(rows, C)`` matrix."""
        laws = np.random.default_rng(3).dirichlet(np.ones(5), size=16)
        dense_majority_vote_law(laws, 35)
        tracemalloc.start()
        try:
            dense_majority_vote_law(laws, 35)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStackedRuns:
    """One call over ``runs`` of equal-sized blocks gives every block
    bitwise the law of its own one-block call."""

    #: Blocks of 1, 3, 8, 16 and 64 rows, in runs of one and of two.
    BLOCK_SIZES = [1, 3, 3, 8, 16, 64, 64, 1, 16, 16, 8, 3]

    @pytest.mark.parametrize(
        "num_opinions,sample_size",
        [
            (2, 1), (2, 35), (2, 1000), (3, 35), (3, 300),
            (4, 1), (4, 20), (4, 100), (5, 25), (5, 35), (5, 36),
            (6, 9), (6, 17), (8, 11),
        ],
    )
    def test_runs_are_bitwise_the_per_block_calls(
        self, num_opinions, sample_size
    ):
        """Blocks from 3 rows on hold an all-zero row and a row with a
        zero-probability color; 64-row blocks take 512-column windows, so
        every case but ``L = 1`` spans several windows for some block,
        and at k = 5, L >= 35 (666 tail compositions of L), k = 6,
        L = 17 (171 head compositions of 17, times 6) and k = 8 a 64-row
        block's largest head sizes are tiled."""
        rng = np.random.default_rng([num_opinions, sample_size])
        blocks = [
            _color_laws(rng, size, num_opinions) for size in self.BLOCK_SIZES
        ]
        runs = _size_runs(self.BLOCK_SIZES)
        assert sorted(set(count for count, _ in runs)) == [1, 2]
        law = dense_majority_vote_law(np.concatenate(blocks), sample_size, runs)
        expected = np.concatenate(
            [dense_majority_vote_law(block, sample_size) for block in blocks]
        )
        assert np.array_equal(law, expected)

    def test_a_long_run_is_split_into_bounded_stacks(self, monkeypatch):
        """Twenty 16-row blocks at k = 5, L = 35: a block's buffers for the
        widest windows (2,035 tail compositions, 405 head compositions
        times 5 colors of sums and 405 of ``h``) take 71,440 elements, so
        the run is evaluated in stacks of 3 blocks (the last of 2), each
        block bitwise its own call, and the call's traced peak stays
        under 3 MB (one stack of twenty blocks would take 11 MB)."""
        rng = np.random.default_rng(6)
        blocks = [_color_laws(rng, 16, 5) for _ in range(20)]
        merged = np.concatenate(blocks)
        dense_majority_vote_law(blocks[0], 35)
        tracemalloc.start()
        try:
            law = dense_majority_vote_law(merged, 35, [(20, 16)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        expected = np.concatenate(
            [dense_majority_vote_law(block, 35) for block in blocks]
        )
        assert np.array_equal(law, expected)

        plan = pull_model._plan(
            pull_model._dense_majority_vote_table(35, 5),
            pull_model._chunk_width(16),
        )
        assert (plan.tails, plan.heads) == (2035, 405)
        stacks = []
        split = pull_model._split

        def recording_split(buffer, shape, widths):
            stacks.append(shape)
            return split(buffer, shape, widths)

        monkeypatch.setattr(pull_model, "_split", recording_split)
        dense_majority_vote_law(merged, 35, [(20, 16)])
        windows = len(plan.windows)
        assert stacks == [(3, 16)] * (6 * windows) + [(2, 16)] * windows

    @pytest.mark.parametrize("num_opinions", [3, 5])
    def test_no_rows_give_no_law(self, num_opinions):
        law = dense_majority_vote_law(np.zeros((0, num_opinions)), 35)
        assert law.shape == (0, num_opinions)

    def test_default_is_one_block(self):
        laws = _color_laws(np.random.default_rng(4), 8, 3)
        assert np.array_equal(
            dense_majority_vote_law(laws, 35),
            dense_majority_vote_law(laws, 35, [(1, 8)]),
        )

    @pytest.mark.parametrize("runs", [[(2, 3)], [(1, 8), (1, 1)], [(0, 8)]])
    def test_runs_must_cover_the_rows(self, runs):
        laws = _color_laws(np.random.default_rng(5), 8, 3)
        with pytest.raises(ValueError, match="do not cover"):
            dense_majority_vote_law(laws, 35, runs)


class TestUnsplitLawIsBitwise:
    """Without a head (k <= 3) the evaluator is the unsplit chunked GEMM:
    every block's law is bitwise the law of the evaluator it replaced,
    alone and in mixed runs."""

    BLOCK_SIZES = [1, 3, 3, 16, 64, 64, 16, 1]

    @pytest.mark.parametrize("num_opinions", [2, 3])
    @pytest.mark.parametrize("sample_size", [1, 35, 665, 1413])
    def test_bitwise_the_unsplit_evaluator(self, num_opinions, sample_size):
        rng = np.random.default_rng([num_opinions, sample_size, 1])
        for rows in (1, 3, 16, 64):
            laws = _color_laws(rng, rows, num_opinions)
            assert np.array_equal(
                dense_majority_vote_law(laws, sample_size),
                _unsplit_law(laws, sample_size),
            ), rows
        laws = np.concatenate(
            [_color_laws(rng, size, num_opinions) for size in self.BLOCK_SIZES]
        )
        runs = _size_runs(self.BLOCK_SIZES)
        assert np.array_equal(
            dense_majority_vote_law(laws, sample_size, runs),
            _unsplit_law(laws, sample_size, runs),
        )


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize("num_opinions,sample_size", _CLOSED_FORM_CASES)
    def test_matches_table_law_to_machine_precision(
        self, num_opinions, sample_size
    ):
        """On Stage-2 rows (no "no opinion" mass) the dense law equals the
        closed form."""
        rng = np.random.default_rng(sample_size * 10 + num_opinions)
        laws = _color_laws(rng, 8, num_opinions, empty_rows=False)
        observation_law = np.concatenate([np.zeros((8, 1)), laws], axis=1)
        table = majority_vote_law(observation_law, sample_size)
        assert not table[:, 0].any()
        dense = dense_majority_vote_law(laws, sample_size)
        assert np.max(np.abs(dense - table[:, 1:])) <= TOLERANCE
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_zero_probability_color_is_never_voted(self):
        probabilities = np.array([[0.7, 0.3, 0.0]])
        law = dense_majority_vote_law(probabilities, 25)
        assert law[0, 2] == 0.0
        assert law[0, 0] > law[0, 1] > 0.0

    def test_all_zero_row_falls_back_to_uniform(self):
        probabilities = np.array([[0.0, 0.0], [0.5, 0.5]])
        law = dense_majority_vote_law(probabilities, 12)
        assert np.allclose(law[0], [0.5, 0.5])
        assert np.allclose(law[1], [0.5, 0.5])

    def test_degenerate_single_color_row(self):
        probabilities = np.array([[1.0, 0.0]])
        law = dense_majority_vote_law(probabilities, 40)
        assert np.allclose(law, [[1.0, 0.0]])


class TestTractability:
    def test_covers_large_sample_sizes_the_table_cannot(self):
        assert not vote_table_is_tractable(665, 3)
        assert dense_vote_law_is_tractable(665, 3)
        assert dense_vote_law_is_tractable(1247, 2)
        assert dense_vote_law_is_tractable(1413, 3)
        assert dense_vote_law_is_tractable(36, 5)

    def test_rejects_blowups(self):
        assert not dense_vote_law_is_tractable(300, 4)
        assert not dense_vote_law_is_tractable(1414, 3)
        assert not dense_vote_law_is_tractable(37, 5)
        assert not vote_table_is_tractable(83, 3)
        assert not dense_vote_law_is_tractable(0, 3)
        assert not dense_vote_law_is_tractable(5, 0)

    def test_law_raises_when_intractable(self):
        with pytest.raises(ValueError):
            dense_majority_vote_law(
                np.full((1, 4), 0.25), 300
            )

    def test_gate_is_patchable_off(self, monkeypatch):
        monkeypatch.setattr(
            pull_model, "_DENSE_VOTE_LAW_MAX_COMPOSITIONS", 0
        )
        assert not dense_vote_law_is_tractable(200, 3)

    def test_admits_exactly_the_closed_form_and_dense_budgets(self):
        """Every (L, k) the closed form or the old dense budgets admitted,
        and nothing else: no sample size moves onto or off the chunk
        sampler."""
        def old_dense(sample_size, num_opinions):
            return (
                math.comb(sample_size + num_opinions - 1, num_opinions - 1)
                <= 3_000_000
                and (sample_size + 1) ** (num_opinions - 1) <= 2_000_000
            )

        for num_opinions in range(1, 16):
            for sample_size in range(1, 3001):
                assert dense_vote_law_is_tractable(sample_size, num_opinions) == (
                    vote_table_is_tractable(sample_size, num_opinions)
                    or old_dense(sample_size, num_opinions)
                ), (sample_size, num_opinions)


def _model(num_opinions, rows=1):
    noise = (
        uniform_noise_matrix(num_opinions, 0.3)
        if num_opinions > 1
        else NoiseMatrix(np.eye(1))
    )
    return HeterogeneousCountsDeliveryModel([slice(0, rows)], [1000], [noise])


class TestVotePathResolution:
    def test_paths_partition_the_sample_size_axis(self):
        assert _model(3)._resolve_vote_path(20) == "dense"
        assert _model(3)._resolve_vote_path(200) == "dense"
        # Past both budgets only the bounded chunk sampler remains.
        assert _model(6)._resolve_vote_path(5000) == "chunk"

    def test_stage2_never_takes_the_closed_form_table(self):
        for num_opinions in range(1, 16):
            model = _model(num_opinions)
            for sample_size in range(1, 3001):
                expected = (
                    "dense"
                    if dense_vote_law_is_tractable(sample_size, num_opinions)
                    else "chunk"
                )
                assert model._resolve_vote_path(sample_size) == expected

    def test_small_samples_past_the_grid_cap_draw_from_the_dense_law(self):
        """k = 8, L = 9: the closed form admits it, the grid cap alone
        would not ((L + 1)^7 = 10^7), and the dense table is small."""
        assert vote_table_is_tractable(9, 8)
        assert 10**7 > pull_model._DENSE_VOTE_LAW_MAX_GRID
        model = _model(8, rows=2)
        histograms = np.array([[130, 125, 120, 115, 110, 105, 100, 95]] * 2)
        voters = np.array([500, 400])
        generators = [np.random.default_rng(seed) for seed in range(2)]
        votes, paths = model.sample_vote_counts(
            histograms, voters, [9], generators
        )
        assert paths == ["dense"]
        assert votes.sum(axis=1).tolist() == [500, 400]
