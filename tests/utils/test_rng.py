"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import (
    RowGenerators,
    VECTOR_RUN,
    as_generator,
    as_trial_generators,
    binomial_rows,
    derive_seed,
    multinomial_rows,
    point_generators,
    spawn_generators,
)


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        first = as_generator(7).integers(0, 1000, 10)
        second = as_generator(7).integers(0, 1000, 10)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        first = as_generator(1).integers(0, 10**9, 10)
        second = as_generator(2).integers(0, 10**9, 10)
        assert not np.array_equal(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(5)
        assert isinstance(as_generator(sequence), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")

    def test_numpy_integer_seed(self):
        assert isinstance(as_generator(np.int64(3)), np.random.Generator)


class TestSpawnGenerators:
    def test_count_respected(self):
        assert len(spawn_generators(5, 0)) == 5

    def test_zero_count_allowed(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(-1, 0)

    def test_spawned_streams_are_independent(self):
        generators = spawn_generators(3, 42)
        draws = [generator.integers(0, 10**9, 5) for generator in generators]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible_family(self):
        first = [g.integers(0, 10**9, 3) for g in spawn_generators(3, 42)]
        second = [g.integers(0, 10**9, 3) for g in spawn_generators(3, 42)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(0)
        generators = spawn_generators(2, parent)
        assert len(generators) == 2

    def test_spawn_from_seed_sequence(self):
        generators = spawn_generators(2, np.random.SeedSequence(9))
        assert len(generators) == 2


class TestPointGenerators:
    def test_a_single_source_gives_every_row_its_one_trial_stream(self):
        rows = point_generators(7, 5)
        assert isinstance(rows, RowGenerators)
        assert all(generator is rows[0] for generator in rows)
        assert rows.bounds == [0, 5] and rows.longest == 5
        (alone,) = as_trial_generators(7, 1)
        assert rows[0].bit_generator.state == alone.bit_generator.state

    def test_a_per_trial_list_keeps_its_streams(self):
        streams = _streams(0, 3)
        rows = point_generators(streams, 3)
        assert list(rows) == streams
        assert rows.bounds == [0, 1, 2, 3] and rows.longest == 1
        with pytest.raises(ValueError, match="per-trial random states"):
            point_generators(streams, 4)

    def test_row_generators_find_runs_of_one_object(self):
        first, second = _streams(1, 2)
        rows = RowGenerators([first, first, second, first, first, first])
        assert rows.bounds == [0, 2, 3, 6] and rows.longest == 3
        assert RowGenerators([]).bounds == [0, 0]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 0) == derive_seed(3, 0)

    def test_varies_with_index(self):
        assert derive_seed(3, 0) != derive_seed(3, 1)

    def test_varies_with_base(self):
        assert derive_seed(3, 0) != derive_seed(4, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(3, -1)

    def test_none_base_allowed(self):
        assert isinstance(derive_seed(None, 2), int)


def _reference_multinomial_loop(generators, sizes, pvals):
    """The per-(row, group) scalar loop the helper replaced: one call per
    nonempty group, and a 1-D ``sizes`` calls once per row, empty or not."""
    if sizes.ndim == 1:
        return np.array(
            [
                generator.multinomial(int(size), law)
                for generator, size, law in zip(generators, sizes, pvals)
            ],
            dtype=np.int64,
        ).reshape(sizes.shape + pvals.shape[-1:])
    out = np.empty(sizes.shape + pvals.shape[-1:], dtype=np.int64)
    for row, generator in enumerate(generators):
        for group in range(sizes.shape[1]):
            group_size = sizes[row, group]
            law = pvals[row, group] if pvals.ndim == 3 else pvals[row]
            if group_size:
                out[row, group] = generator.multinomial(group_size, law)
            else:
                out[row, group] = 0
    return out


def _reference_binomial_loop(generators, sizes, p):
    """The per-row vector-``n`` loop the helper replaced, with a vector
    ``p`` when there is one probability per cell."""
    out = np.empty(sizes.shape, dtype=np.int64)
    for row, generator in enumerate(generators):
        probability = p[row].tolist() if p.ndim == 2 else float(p[row])
        out[row] = generator.binomial(sizes[row].tolist(), probability)
    return out


def _laws(rng, shape):
    """Random pmfs over the last axis, with some zero-probability cells."""
    laws = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    laws[rng.random(shape) < 0.25] = 0.0
    laws[..., 0] += laws.sum(axis=-1) == 0  # keep every law non-empty
    return laws / laws.sum(axis=-1, keepdims=True)


def _sizes(rng, shape):
    """Group sizes up to 10^12, about a third of them zero."""
    sizes = rng.integers(0, 10 ** rng.integers(1, 13, size=shape), size=shape)
    sizes[rng.random(shape) < 0.3] = 0
    return sizes


def _streams(seed, rows):
    return [np.random.default_rng([seed, row]) for row in range(rows)]


def _assert_same_streams(left, right):
    assert [g.bit_generator.state for g in left] == [
        g.bit_generator.state for g in right
    ]


class TestRowDraws:
    """multinomial_rows / binomial_rows against the loops they replaced:
    equal draws and every row's generator in the same final state."""

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("num_opinions", range(2, 8))
    @pytest.mark.parametrize("laws_per", ["row", "cell"])
    def test_multinomial_rows_match_the_group_loop(
        self, rows, num_opinions, laws_per
    ):
        rng = np.random.default_rng([rows, num_opinions])
        groups = num_opinions + 1
        sizes = _sizes(rng, (rows, groups))
        law_shape = (rows, groups, groups) if laws_per == "cell" else (rows, groups)
        pvals = _laws(rng, law_shape)
        mine, theirs = _streams(1, rows), _streams(1, rows)
        drawn = multinomial_rows(mine, sizes, pvals)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, _reference_multinomial_loop(theirs, sizes, pvals))
        _assert_same_streams(mine, theirs)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("num_opinions", range(2, 8))
    def test_one_draw_per_row_matches_a_call_per_row(self, rows, num_opinions):
        rng = np.random.default_rng([rows, num_opinions, 1])
        sizes = _sizes(rng, (rows,))
        pvals = _laws(rng, (rows, num_opinions))
        mine, theirs = _streams(2, rows), _streams(2, rows)
        drawn = multinomial_rows(mine, sizes, pvals)
        assert drawn.shape == (rows, num_opinions)
        assert np.array_equal(drawn, _reference_multinomial_loop(theirs, sizes, pvals))
        _assert_same_streams(mine, theirs)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("num_opinions", range(2, 8))
    @pytest.mark.parametrize("p_per", ["row", "cell"])
    def test_binomial_rows_match_the_vector_n_loop(
        self, rows, num_opinions, p_per
    ):
        rng = np.random.default_rng([rows, num_opinions, 2])
        sizes = _sizes(rng, (rows, num_opinions + 1))
        p_shape = sizes.shape if p_per == "cell" else (rows,)
        p = rng.random(p_shape)
        p[rng.random(p_shape) < 0.2] = 0.0
        p[rng.random(p_shape) < 0.1] = 1.0
        mine, theirs = _streams(3, rows), _streams(3, rows)
        drawn = binomial_rows(mine, sizes, p)
        assert np.array_equal(drawn, _reference_binomial_loop(theirs, sizes, p))
        _assert_same_streams(mine, theirs)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("laws_per", ["row", "cell"])
    @pytest.mark.parametrize("second_cell", ["rest", "any"])
    def test_two_cell_laws_match_the_multinomial_loop(
        self, rows, laws_per, second_cell
    ):
        """A two-cell law draws ``binomial(n, p0)``: numpy's multinomial
        makes that very call, so the draws and final streams are the
        multinomial loop's, for ``p0`` in ``{0, 1}`` and ``n`` up to 10^12.
        Like numpy, the draw reads only ``p0``: any second cell in
        ``[0, 1]`` gives the same draws."""
        rng = np.random.default_rng([rows, 2, 4])
        sizes = _sizes(rng, (rows, 3))
        law_shape = (rows, 3, 2) if laws_per == "cell" else (rows, 2)
        p0 = rng.random(law_shape[:-1])
        p0[rng.random(p0.shape) < 0.2] = 0.0
        p0[rng.random(p0.shape) < 0.2] = 1.0
        p1 = 1.0 - p0 if second_cell == "rest" else rng.random(p0.shape)
        pvals = np.stack([p0, p1], axis=-1)
        mine, theirs = _streams(4, rows), _streams(4, rows)
        drawn = multinomial_rows(mine, sizes, pvals)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, _reference_multinomial_loop(theirs, sizes, pvals))
        _assert_same_streams(mine, theirs)

    def test_two_cell_laws_make_binomial_calls(self):
        """The two-cell path makes one binomial call per nonzero cell and
        no multinomial call."""
        calls = []

        class Recording:
            def __init__(self, generator):
                self.generator = generator

            def binomial(self, *args):
                calls.append("binomial")
                return self.generator.binomial(*args)

            def multinomial(self, *args):
                calls.append("multinomial")
                return self.generator.multinomial(*args)

        sizes = np.array([[5, 0], [10**12, 7]])
        pvals = np.array([[0.25, 0.75], [1.0, 0.0]])
        drawn = multinomial_rows(
            [Recording(g) for g in _streams(5, 2)], sizes, pvals
        )
        assert calls == ["binomial"] * 3
        assert np.array_equal(drawn.sum(axis=2), sizes)
        assert np.array_equal(
            drawn, _reference_multinomial_loop(_streams(5, 2), sizes, pvals)
        )

    @pytest.mark.parametrize(
        "law", [[np.nan, 0.5], [0.5, np.nan], [1.5, -0.5], [0.5, 1.5]]
    )
    def test_an_invalid_two_cell_law_raises_the_multinomial_error(self, law):
        """A NaN or a cell outside [0, 1] keeps the multinomial call, so the
        error is numpy's multinomial error, raised after the same draws
        (``binomial(n, 0.5)`` alone would accept ``[0.5, 1.5]``)."""
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).multinomial(4, law)
        sizes = np.array([3, 4])
        pvals = np.array([[0.5, 0.5], law])
        mine, theirs = _streams(6, 2), _streams(6, 2)
        with pytest.raises(ValueError) as raised:
            multinomial_rows(mine, sizes, pvals)
        with pytest.raises(ValueError):
            _reference_multinomial_loop(theirs, sizes, pvals)
        assert str(raised.value) == str(expected.value)
        _assert_same_streams(mine, theirs)

    def test_zero_rows_and_generator_count_check(self):
        assert multinomial_rows([], np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3, 3)
        assert binomial_rows([], np.zeros(0), np.zeros(0)).shape == (0,)
        with pytest.raises(ValueError, match="one generator per row"):
            multinomial_rows(_streams(0, 2), np.ones(3), np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="one generator per row"):
            binomial_rows(_streams(0, 1), np.ones((2, 2)), np.full(2, 0.5))


#: Rows per run, each run on one of three generator objects (a run may
#: repeat its neighbour's object, which then extends that run).
runs_strategy = st.lists(
    st.tuples(st.integers(1, 40), st.integers(0, 2)), min_size=1, max_size=5
)


def _shared_streams(seed, runs):
    """``(mine, theirs)``: equal row lists whose runs share one generator."""
    pools = [_streams(seed, 3), _streams(seed, 3)]
    return [
        [pool[obj] for rows, obj in runs for _ in range(rows)] for pool in pools
    ]


class TestSharedStreamRuns:
    """Rows sharing a generator: a run of at least VECTOR_RUN entries is one
    vector call, and the draws and every generator's end state equal the
    scalar calls in row order, at any threshold."""

    @given(
        runs=runs_strategy,
        groups=st.integers(1, 5),
        cells=st.integers(2, 6),
        laws_per=st.sampled_from(["row", "cell"]),
        threshold=st.sampled_from([1, 6, VECTOR_RUN, 10**9]),
        wrap=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_multinomial_rows_equal_scalar_row_order_draws(
        self, runs, groups, cells, laws_per, threshold, wrap, seed
    ):
        rng = np.random.default_rng(seed)
        rows = sum(count for count, _ in runs)
        sizes = _sizes(rng, (rows, groups))
        law_shape = (rows, groups, cells) if laws_per == "cell" else (rows, cells)
        pvals = _laws(rng, law_shape)
        mine, theirs = _shared_streams(seed, runs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "VECTOR_RUN", threshold)
            drawn = multinomial_rows(
                RowGenerators(mine) if wrap else mine, sizes, pvals
            )
        assert np.array_equal(
            drawn, _reference_multinomial_loop(theirs, sizes, pvals)
        )
        _assert_same_streams(mine, theirs)

    @given(
        runs=runs_strategy,
        groups=st.integers(1, 5),
        p_per=st.sampled_from(["row", "cell"]),
        threshold=st.sampled_from([1, 12, VECTOR_RUN, 10**9]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_binomial_rows_equal_scalar_row_order_draws(
        self, runs, groups, p_per, threshold, seed
    ):
        rng = np.random.default_rng(seed)
        rows = sum(count for count, _ in runs)
        sizes = _sizes(rng, (rows, groups))
        p_shape = sizes.shape if p_per == "cell" else (rows,)
        p = rng.random(p_shape)
        p[rng.random(p_shape) < 0.2] = 0.0
        p[rng.random(p_shape) < 0.1] = 1.0
        mine, theirs = _shared_streams(seed, runs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "VECTOR_RUN", threshold)
            drawn = binomial_rows(RowGenerators(mine), sizes, p)
        assert np.array_equal(drawn, _reference_binomial_loop(theirs, sizes, p))
        _assert_same_streams(mine, theirs)

    @pytest.mark.parametrize("entries", [1, VECTOR_RUN - 1, VECTOR_RUN, 3 * VECTOR_RUN])
    @pytest.mark.parametrize("cells", [2, 3])
    def test_one_shared_stream_makes_one_vector_call_from_the_threshold(
        self, entries, cells
    ):
        """A one-stream point's rows make one vector call per draw step from
        VECTOR_RUN entries on, and one scalar call per entry below it, two-cell
        laws as binomials; zero cells make none."""
        calls = []

        class Recording:
            def __init__(self, generator):
                self.generator = generator

            def binomial(self, n, p):
                calls.append(("binomial", np.ndim(n)))
                return self.generator.binomial(n, p)

            def multinomial(self, n, p):
                calls.append(("multinomial", np.ndim(n)))
                return self.generator.multinomial(n, p)

        rng = np.random.default_rng([entries, cells])
        sizes = np.zeros(entries + 3, dtype=np.int64)
        sizes[:entries] = rng.integers(1, 10**6, size=entries)
        pvals = _laws(rng, (sizes.size, cells))
        shared = Recording(np.random.default_rng(0))
        drawn = multinomial_rows([shared] * sizes.size, sizes, pvals)
        method = "binomial" if cells == 2 else "multinomial"
        if entries >= VECTOR_RUN:
            assert calls == [(method, 1)]
        else:
            assert calls == [(method, 0)] * entries
        theirs = [np.random.default_rng(0)] * sizes.size
        assert np.array_equal(
            drawn, _reference_multinomial_loop(theirs, sizes, pvals)
        )

    @pytest.mark.parametrize("threshold", [1, 10**9])
    @pytest.mark.parametrize(
        "law,p",
        [([0.5, np.nan, 0.5], np.nan), ([1.2, -0.1, -0.1], 1.5),
         ([0.7, 0.7, 0.0], -0.1)],
    )
    def test_an_invalid_law_raises_on_both_paths(
        self, monkeypatch, threshold, law, p
    ):
        """numpy's ValueError for a NaN, a cell outside [0, 1] or cells
        summing past 1, whether the run is one vector call or scalar calls."""
        monkeypatch.setattr(rng_module, "VECTOR_RUN", threshold)
        shared = [np.random.default_rng(0)] * 4
        pvals = np.array([[0.2, 0.3, 0.5]] * 3 + [law])
        with pytest.raises(ValueError, match="pvals"):
            multinomial_rows(shared, np.full(4, 10), pvals)
        with pytest.raises(ValueError, match="p < 0"):
            binomial_rows(shared, np.full(4, 10), np.array([0.5] * 3 + [p]))
