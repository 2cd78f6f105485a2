"""A noisy uniform *pull* substrate for the baseline dynamics.

The baseline protocols the paper's related-work section compares against
(3-majority dynamics, h-majority, undecided-state dynamics, the median rule)
are classically stated in a pull fashion: in each round every node samples
the opinion of a few nodes chosen uniformly at random and updates from what
it observed.  To compare those dynamics with the paper's protocol *under the
same noise assumption*, this engine lets every observation be corrupted by
the same noise matrix used by the push model.

The engine works on a full opinion vector (0 = undecided) and reports, per
round, the matrix of observed (noisy) opinion counts per node.

:class:`EnsemblePullModel` is the batched counterpart used by the ensemble
dynamics: the same noisy observation step over an ``(R, n)`` opinion matrix
of ``R`` independent trials.  Exactly as the ensemble protocol replaces the
per-round push loop with Claim-1 phase sampling, the batched pull engine
samples the *compound* observation channel directly: an observation is a
uniform target draw composed with per-message noise, so each observation is
an i.i.d. categorical draw over {no opinion, 1, …, k} with probabilities
``(1 - a, c P)`` — distribution-exact, not an approximation.  Trial ``r``
consumes one uniform block per observation step from its own per-trial
stream, so a batched run is bitwise identical to ``R`` batch-size-1 runs
with the same sources (the ensemble reproducibility guarantee); agreement
with the per-message sequential engine is distributional and is checked
statistically by the test-suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, groupby
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.state import opinion_counts_matrix
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages

__all__ = [
    "UniformPullModel",
    "EnsemblePullModel",
    "majority_vote_law",
    "block_majority_vote_law",
    "block_matmul",
    "vote_table_is_tractable",
    "dense_majority_vote_law",
    "dense_vote_law_is_tractable",
    "majority_vote_miss_bound",
    "vote_law_cache_info",
    "clear_vote_law_cache",
]


def _candidate_pool(
    opinions: np.ndarray, include_undecided: bool
) -> np.ndarray:
    """The nodes a single trial may observe (all, or opinionated-only)."""
    num_nodes = opinions.shape[0]
    if include_undecided:
        return np.arange(num_nodes)
    pool = np.nonzero(opinions > 0)[0]
    if pool.size == 0:
        return np.arange(num_nodes)
    return pool


def _observe_core(
    opinions: np.ndarray,
    sample_size: int,
    include_undecided: bool,
    noise: NoiseMatrix,
    rng: np.random.Generator,
) -> np.ndarray:
    """One trial's observed-count matrix ``(n, k)``, message by message.

    The executable specification of the pull observation step: every
    observation is materialized, noised and counted individually.  The
    per-node accumulation is a single :func:`numpy.bincount` over flattened
    ``observer * k + opinion`` indices (measurably faster than the
    ``np.add.at`` scatter it replaces).
    """
    num_nodes = opinions.shape[0]
    num_opinions = noise.num_opinions
    pool = _candidate_pool(opinions, include_undecided)
    targets = rng.choice(pool, size=(num_nodes, sample_size), replace=True)
    observed = opinions[targets]
    observers, slots = np.nonzero(observed > 0)
    if observers.size == 0:
        return np.zeros((num_nodes, num_opinions), dtype=np.int64)
    true_opinions = observed[observers, slots]
    noisy_opinions = noise.apply_to_opinions(true_opinions, rng)
    flat = np.bincount(
        observers * num_opinions + (noisy_opinions - 1),
        minlength=num_nodes * num_opinions,
    )
    return flat.reshape(num_nodes, num_opinions).astype(np.int64, copy=False)


#: Above this many compositions the closed-form ``maj()`` table is not worth
#: building (cost and memory grow as C(sample_size + k, k)); the fused vote
#: sampler then falls back to explicit observation counts.
_VOTE_TABLE_MAX_COMPOSITIONS = 100_000

#: Largest sample size whose factorial still fits a float64 (171! overflows);
#: beyond it the closed form is numerically moot anyway, so the fused vote
#: sampler falls back to explicit observation counts.
_VOTE_TABLE_MAX_SAMPLE = 170


def _vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Whether the closed-form ``maj()`` table is worth (and safe) building."""
    return (
        sample_size <= _VOTE_TABLE_MAX_SAMPLE
        and math.comb(sample_size + num_opinions, num_opinions)
        <= _VOTE_TABLE_MAX_COMPOSITIONS
    )


def vote_table_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Public predicate: can the exact ``maj()`` vote law be tabulated?

    The batched pull engine falls back to explicit observation counts when
    this is ``False``; the counts dynamics and analytic tiers reject an
    h-majority sample size beyond it.  The counts protocol's Stage 2 asks
    :func:`dense_vote_law_is_tractable` instead, which admits every size
    this does.
    """
    return _vote_table_is_tractable(sample_size, num_opinions)


def vote_law_cache_info() -> Dict[str, int]:
    """Hit/miss counters of the two ``maj()`` composition-table LRUs.

    ``table_*`` counts the closed-form table of :func:`majority_vote_law`
    (:func:`_majority_vote_table`) and ``dense_table_*`` the dense table of
    :func:`dense_majority_vote_law`.  Exposed for the sweep benchmark,
    which reports how many grid points shared tables.
    """
    table = _majority_vote_table.cache_info()
    dense = _dense_majority_vote_table.cache_info()
    return {
        "table_hits": table.hits,
        "table_misses": table.misses,
        "table_entries": table.currsize,
        "dense_table_hits": dense.hits,
        "dense_table_misses": dense.misses,
        "dense_table_entries": dense.currsize,
    }


def clear_vote_law_cache() -> None:
    """Empty both composition-table LRUs (and reset their counters)."""
    _majority_vote_table.cache_clear()
    _dense_majority_vote_table.cache_clear()


def majority_vote_law(
    probabilities: np.ndarray, sample_size: int
) -> np.ndarray:
    """The exact pmf of ``maj()`` over ``sample_size`` i.i.d. observations.

    ``probabilities`` has shape ``(R, k + 1)``: row ``r`` is trial ``r``'s
    observation distribution over {no opinion, opinion 1, …, opinion k}.
    Returns the matching ``(R, k + 1)`` vote distribution over {no vote,
    vote 1, …, vote k}, with the uniform tie-break folded in analytically
    (via :func:`_majority_vote_table`).  Raises ``ValueError`` when the
    composition table is intractable for ``(sample_size, k)`` — callers
    should check :func:`vote_table_is_tractable` first and fall back to
    explicit observation sampling.
    """
    composition_probabilities, vote_law = _composition_probabilities(
        probabilities, sample_size
    )
    return composition_probabilities @ vote_law


def _size_runs(block_sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """``(count, size)`` runs of consecutive blocks with equal row counts:
    the ``runs`` of :func:`block_matmul` and
    :func:`dense_majority_vote_law`, one stacked matmul each."""
    return [(len(list(group)), size) for size, group in groupby(block_sizes)]


def _check_runs(runs: Sequence[Tuple[int, int]], rows: int) -> None:
    """Raise ``ValueError`` unless ``runs`` cover exactly ``rows`` rows."""
    if sum(count * size for count, size in runs) != rows:
        raise ValueError(f"runs {list(runs)} do not cover {rows} rows")


def block_matmul(
    left: np.ndarray, right: np.ndarray, runs: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """``left[block] @ right[block]`` for consecutive row blocks, bitwise.

    ``runs`` lists ``(count, rows)`` pairs that cover the rows of ``left``
    in order: ``count`` consecutive blocks of ``rows`` rows each.
    ``right`` stacks one ``(m, p)`` matrix per block.  Each run is one
    stacked ``(count, rows, m) @ (count, m, p)`` matmul: numpy applies the
    2-D kernel to every slice at the shape and strides of the per-block
    call, so each block's rows are bitwise its own 2-D matmul.  One matmul
    over all rows would not be, because the BLAS kernel it picks depends
    on the row count.
    """
    _check_runs(runs, left.shape[0])
    if sum(count for count, _ in runs) != right.shape[0]:
        raise ValueError(
            f"runs {list(runs)} do not cover {right.shape[0]} blocks"
        )
    out = np.empty((left.shape[0], right.shape[2]))
    start = first = 0
    for count, rows in runs:
        stop = start + count * rows
        np.matmul(
            left[start:stop].reshape(count, rows, -1),
            right[first : first + count],
            out=out[start:stop].reshape(count, rows, -1),
        )
        start, first = stop, first + count
    return out


def block_majority_vote_law(
    probabilities: np.ndarray,
    sample_size: int,
    runs: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """:func:`majority_vote_law` of consecutive row blocks, bitwise per block.

    ``runs`` are :func:`block_matmul`'s.  Every block's rows come out
    bitwise equal to ``majority_vote_law`` of that block alone: the
    composition step is elementwise with a per-row product, so it runs once
    over all rows, and the law's matmul runs per block through
    :func:`block_matmul`.
    """
    composition_probabilities, vote_law = _composition_probabilities(
        probabilities, sample_size
    )
    blocks = sum(count for count, _ in runs)
    return block_matmul(
        composition_probabilities,
        np.broadcast_to(vote_law, (blocks,) + vote_law.shape),
        runs,
    )


def _composition_probabilities(
    probabilities: np.ndarray, sample_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``maj()`` law's composition step and its ``vote_law`` table.

    Returns ``(coefficients * prod_i q_i^{m_i}, vote_law)`` for every row
    ``q`` of ``probabilities`` and every composition ``m`` of the table, so
    that the law is their product.  Elementwise with a per-row product:
    each row's values do not depend on the other rows.  Raises
    ``ValueError`` for malformed input or an intractable table.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise ValueError(
            "probabilities must have shape (R, k + 1), got "
            f"{probabilities.shape}"
        )
    num_opinions = probabilities.shape[1] - 1
    sample_size = require_positive_int(sample_size, "sample_size")
    if not _vote_table_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the maj() composition table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check vote_table_is_tractable "
            "and use explicit observation sampling instead"
        )
    exponents, coefficients, vote_law = _majority_vote_table(
        sample_size, num_opinions
    )
    # When no row can observe "no opinion" (Stage 2), every composition
    # with m_0 > 0 has probability exactly 0.  The table lists the m_0 = 0
    # compositions first, so only that prefix is evaluated, element by
    # element as in the full grid: the law is bitwise the full evaluation,
    # row by row, so the decision may span any set of rows.
    live = exponents.shape[0]
    if not probabilities[:, 0].any():
        live = math.comb(sample_size + num_opinions - 1, num_opinions - 1)
    composition_probabilities = np.zeros(
        (probabilities.shape[0], exponents.shape[0])
    )
    composition_probabilities[:, :live] = coefficients[:live] * np.prod(
        probabilities[:, np.newaxis, :] ** exponents[np.newaxis, :live, :],
        axis=2,
    )
    return composition_probabilities, vote_law


def _composition_columns(total: int, width: int) -> List[np.ndarray]:
    """Every composition of ``total`` into ``width`` non-negative parts.

    Returns the ``width`` int64 columns, each of length ``C = C(total +
    width - 1, width - 1)``, in lexicographic order of the parts, which is
    the stars-and-bars order of ``itertools.combinations`` over the
    dividers: the compositions with a leading 0 form a prefix.  Built one
    part at a time: each partial composition with ``r`` left to place
    expands into ``r + 1`` rows whose next part runs 0..r (``np.repeat``
    of the parent row, minus the ``cumsum`` offset of its run), and the
    last part takes what is left.  Time and memory are ``O(C · width)``.
    """
    columns = []
    remaining = np.array([total], dtype=np.int64)
    for _ in range(width - 1):
        runs = remaining + 1
        parent = np.repeat(np.arange(remaining.size), runs)
        part = np.arange(parent.size) - np.repeat(np.cumsum(runs) - runs, runs)
        columns = [column[parent] for column in columns]
        columns.append(part)
        remaining = remaining[parent]
        remaining -= part
    columns.append(remaining)
    return columns


def _compositions(total: int, width: int) -> np.ndarray:
    """:func:`_composition_columns` as one ``(C, width)`` int64 matrix."""
    return np.stack(_composition_columns(total, width), axis=1)


@lru_cache(maxsize=None)
def _majority_vote_table(
    sample_size: int, num_opinions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact ``maj()`` law of ``sample_size`` categorical observations.

    Enumerates every composition ``m = (m_0, m_1, …, m_k)`` of
    ``sample_size`` observations over {no opinion, opinion 1, …, opinion k}
    and tabulates

    * ``exponents`` — the ``(C, k+1)`` composition matrix,
    * ``coefficients`` — the multinomial coefficients
      ``sample_size! / prod(m_i!)``,
    * ``vote_law`` — the ``(C, k+1)`` conditional vote distribution given
      the composition: all mass on "no vote" when no opinion was observed,
      otherwise uniform over the most frequent observed opinions (the
      paper's uniform tie-break, folded in analytically).

    With observation probabilities ``q`` the vote pmf is then
    ``(coefficients * prod_i q_i^{m_i}) @ vote_law`` — the closed form the
    batched h-majority step samples from with one uniform per node.  The
    compositions come in lexicographic stars-and-bars order
    (:func:`_compositions`), so the ``C(sample_size + k - 1, k - 1)`` with
    ``m_0 = 0`` form a prefix.
    """
    width = num_opinions + 1
    exponents = _compositions(sample_size, width)
    factorials = np.asarray(
        [math.factorial(value) for value in range(sample_size + 1)],
        dtype=float,
    )
    coefficients = math.factorial(sample_size) / factorials[exponents].prod(axis=1)
    opinion_counts = exponents[:, 1:]
    row_max = opinion_counts.max(axis=1)
    voted = row_max > 0
    tied = (opinion_counts == row_max[:, np.newaxis]) & voted[:, np.newaxis]
    vote_law = np.zeros((exponents.shape[0], width), dtype=float)
    vote_law[:, 0] = ~voted
    np.divide(
        tied, tied.sum(axis=1, keepdims=True), out=vote_law[:, 1:], where=tied
    )
    return exponents, coefficients, vote_law


#: Composition budget of the *dense* vote law (opinionated observations
#: only, so ``C(sample_size + k - 1, k - 1)`` rows): large enough to cover
#: the Stage-2 final phase of million-node protocol runs (k = 3, L ~ 700 is
#: ~250k rows), small enough that the table stays a few dozen MB.
_DENSE_VOTE_LAW_MAX_COMPOSITIONS = 3_000_000

#: Second size cap of the dense table, on ``(sample_size + 1)**(k - 1)``.
#: It binds before the composition budget for every ``k >= 2`` (``k = 3``
#: stops at ``sample_size = 1413``, a 56 MB table, ``k = 5`` at 36, a
#: 4.0 MB one); for ``k >= 4`` the composition budget alone would admit
#: tables of hundreds of MB.  It guards no transient grid
#: (:func:`_composition_columns` builds the table in ``O(C · k)``
#: memory); it is a cap on the table's size, and, with the closed-form
#: budget (which admits the small sample sizes it would cut for
#: ``k >= 7``), it fixes where each ``k`` leaves the dense path for the
#: chunk sampler.
_DENSE_VOTE_LAW_MAX_GRID = 2_000_000

#: Log-probability surrogate for zero-probability colors: finite (so the
#: composition matmul never produces ``0 * -inf = nan``) yet negative enough
#: that any composition using such a color underflows to exactly 0.
_DENSE_LOG_ZERO = -1.0e6

#: Elements of one ``(rows, columns)`` chunk of the dense law's log-space
#: GEMMs: a block's window of the table is at most this many elements
#: divided by its row count wide, in tail compositions and in head
#: compositions times ``k``, so the chunks (256 KB each) stay
#: cache-resident whatever the block's size and the evaluation allocates
#: no ``(rows, C)`` matrix.  The table builder fills its win weights in
#: pieces of this many elements too.
_DENSE_CHUNK_ELEMENTS = 2**15

#: Elements of one stack of the dense law's buffers: a run of equal-sized
#: blocks is evaluated in stacks of as many blocks as fit this many
#: elements (2 MB), so the transient stays bounded however many grid
#: points share a sample size.
_DENSE_STACK_ELEMENTS = 2**18


def dense_vote_law_is_tractable(sample_size: int, num_opinions: int) -> bool:
    """Can the dense (opinionated-only) ``maj()`` law be evaluated exactly?

    The dense path enumerates only the compositions of ``sample_size``
    observations over the ``k`` opinions — no "no opinion" cell — which is
    exactly the Stage-2 counts situation, where every message in a voter's
    sample carries an opinion.  Because one axis is dropped, it stays exact
    far beyond :func:`vote_table_is_tractable`'s factorial/composition
    budget (any ``sample_size`` for ``k = 2``, thousands for ``k = 3``).
    It also admits every ``(sample_size, k)`` the closed-form table does,
    whose dense table is smaller still (the grid cap alone would leave out
    e.g. ``k = 8``, ``sample_size`` 7–11), so Stage 2 never needs the
    closed form.  Beyond these budgets callers fall back to per-voter
    observation sampling.
    """
    if sample_size < 1 or num_opinions < 1:
        return False
    return _vote_table_is_tractable(sample_size, num_opinions) or (
        math.comb(sample_size + num_opinions - 1, num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_COMPOSITIONS
        and (sample_size + 1) ** (num_opinions - 1)
        <= _DENSE_VOTE_LAW_MAX_GRID
    )


def _composition_count(total: int, width: int) -> int:
    """The number of compositions of ``total`` into ``width`` parts."""
    if width == 0:
        return int(total == 0)
    return math.comb(total + width - 1, width - 1)


class _DenseTable(NamedTuple):
    """The dense ``maj()`` law's table over a head and a tail of colors.

    A composition ``m = (x, y)`` of the sample splits into its counts
    ``x`` of the head colors, of size ``s``, and ``y`` of the tail colors,
    of size ``L - s``.  Block ``s`` pairs the head compositions of size
    ``s`` (``X_s``) with the tail compositions of size ``L - s``
    (``Y_{L-s}``); blocks come in ``s`` ascending.
    """

    #: ``(Σ_s |Y_{L-s}|, k - a + 1)``, column major: the tail
    #: compositions, then ``log((L - s)! / Π y_j!)``.
    tail: np.ndarray
    #: ``(Σ_s |X_s|, a + 1)``, column major: the head compositions (of
    #: each size in reverse lexicographic order), then
    #: ``log(L! / ((L - s)! Π x_i!))``.
    head: np.ndarray
    #: One ``(|Y_{L-s}|, |X_s| · k)`` block per ``s``: row ``y``, column
    #: ``x · k + c`` holds color ``c``'s win weight given ``(x, y)``.
    win_weight: Tuple[np.ndarray, ...]
    #: Block ``s`` has rows ``tail_starts[s]:tail_starts[s + 1]`` of
    #: ``tail`` and ``head_starts[s]:head_starts[s + 1]`` of ``head``.
    tail_starts: Tuple[int, ...]
    head_starts: Tuple[int, ...]
    #: The evaluation plan of each window width met so far
    #: (:func:`_plan`), kept with the table it reads.
    plans: Dict[int, "_Plan"]


def _log_table(
    parts: Sequence[np.ndarray], leading, log_factorial: np.ndarray
) -> np.ndarray:
    """``(n, len(parts) + 1)``, column major: the int ``parts`` as float
    columns, then ``leading`` minus their log-factorials (summed left to
    right)."""
    rows = parts[0].size if len(parts) else np.size(leading)
    table = np.zeros((rows, len(parts) + 1), order="F")
    log_coefficients = table[:, len(parts)]
    for index, part in enumerate(parts):
        table[:, index] = part
        log_coefficients += log_factorial[part]
    np.subtract(leading, log_coefficients, out=log_coefficients)
    return table


def _fill_win_weights(
    block: np.ndarray, head_parts: np.ndarray, tail_parts: np.ndarray
) -> None:
    """``block[y, x · k + c]`` = color ``c``'s share of the vote given the
    composition ``(x, y)``: uniform over its most frequent colors.  Filled
    in pieces of tail rows of about :data:`_DENSE_CHUNK_ELEMENTS`
    elements."""
    heads = head_parts.shape[0]
    num_opinions = head_parts.shape[1] + tail_parts.shape[1]
    step = max(1, _DENSE_CHUNK_ELEMENTS // (heads * num_opinions))
    for start in range(0, tail_parts.shape[0], step):
        tails = tail_parts[start : start + step]
        parts = np.concatenate(
            [
                np.broadcast_to(head_parts, (len(tails),) + head_parts.shape),
                np.broadcast_to(
                    tails[:, np.newaxis], (len(tails), heads, tails.shape[1])
                ),
            ],
            axis=2,
        )
        tied = parts == parts.max(axis=2, keepdims=True)
        block[start : start + step] = (
            tied / tied.sum(axis=2, keepdims=True)
        ).reshape(len(tails), heads * num_opinions)


@lru_cache(maxsize=32)
def _dense_majority_vote_table(
    sample_size: int, num_opinions: int
) -> _DenseTable:
    """Composition table of the dense ``maj()`` law (opinionated-only).

    The pmf of a composition ``m = (x, y)`` of ``L = sample_size``
    observations factors over a split of the colors into a head and a
    tail: ``L! / Π m_i! · Π p_i^{m_i} = h(x) · t(y)`` with
    ``h(x) = C(L, s) · s! / Π x_i! · Π p_i^{x_i}`` over the head colors
    (``s = |x|``) and ``t(y) = (L - s)! / Π y_j! · Π p_j^{y_j}`` over the
    tail colors.  So scaled, ``t(y) <= 1`` and ``h(x) <= C(L, s) <= 2^L``:
    no factor overflows, and a factor that underflows belongs to a term
    below ``2^L`` times the smallest double.  The head is the first
    ``a = k // 2`` colors from ``k = 4`` on; below that it is empty, and
    the one block (``s = 0``) is the whole unsplit table.

    Tabulates (:class:`_DenseTable`) the head and the tail compositions,
    each with its log coefficient as a last column, so that a
    log-probability row ending in 1.0 times the transpose of a block of
    rows is their ``log h`` or ``log t``, and the win weights (the
    conditional vote law given the composition, uniform over the most
    frequent opinions: the paper's tie-break, folded in analytically; with
    ``sample_size >= 1`` some opinion always wins, so there is no "no
    vote" column), one block per head size ``s``.  All float64; the log
    tables are column major, so that a block of their rows is a BLAS
    operand without a copy.  The win weights are column major at
    ``a = 0`` (one ``(C, k)`` block, the unsplit law's operand) and row
    major per block otherwise, where the GEMMs over wide blocks run
    faster.  At ``k = 5``, ``L = 35``: 666 head and 8,436 tail
    compositions and ``82,251 · 5`` win weights, 3.6 MB.

    Built one column at a time from :func:`_composition_columns`, whose
    int columns are released before the win weights are filled (block by
    block, in pieces of :data:`_DENSE_CHUNK_ELEMENTS` elements): there is
    no ``(C, k)`` temporary and no layout copy.
    """
    head_width = num_opinions // 2 if num_opinions >= 4 else 0
    tail_width = num_opinions - head_width
    log_factorial = np.concatenate(
        [[0.0], np.cumsum(np.log(np.arange(1, sample_size + 1)))]
    )
    # (L - s, x) in lexicographic order lists s descending; reversed, the
    # head compositions come in blocks of s ascending, as the tail's do.
    rest, *head_parts = (
        column[::-1]
        for column in _composition_columns(sample_size, head_width + 1)
    )
    head = _log_table(
        head_parts,
        log_factorial[sample_size] - log_factorial[rest],
        log_factorial,
    )
    del rest, head_parts
    if head_width:
        sizes, *tail_parts = _composition_columns(sample_size, tail_width + 1)
        tail = _log_table(
            tail_parts, log_factorial[sample_size - sizes], log_factorial
        )
        del sizes, tail_parts
    else:
        tail = _log_table(
            _composition_columns(sample_size, tail_width),
            log_factorial[sample_size],
            log_factorial,
        )
    head_sizes = range(sample_size + 1 if head_width else 1)
    tail_starts = tuple(
        accumulate(
            (_composition_count(sample_size - s, tail_width) for s in head_sizes),
            initial=0,
        )
    )
    head_starts = tuple(
        accumulate(
            (_composition_count(s, head_width) for s in head_sizes), initial=0
        )
    )
    weights = np.empty(
        _composition_count(sample_size, num_opinions) * num_opinions
    )
    order = "C" if head_width else "F"
    win_weight = []
    offset = 0
    for s in head_sizes:
        heads = head[head_starts[s] : head_starts[s + 1], :head_width]
        tails = tail[tail_starts[s] : tail_starts[s + 1], :tail_width]
        shape = (len(tails), len(heads) * num_opinions)
        block = weights[offset : offset + shape[0] * shape[1]].reshape(
            shape, order=order
        )
        offset += block.size
        _fill_win_weights(block, heads, tails)
        win_weight.append(block)
    return _DenseTable(
        tail, head, tuple(win_weight), tail_starts, head_starts, {}
    )


class _Window(NamedTuple):
    """One step of the dense law's evaluation: the rows of the table's tail
    and head it reads, and its GEMMs with the win weights, each
    ``(lo, hi, weights, out_lo, out_hi)``: columns ``lo:hi`` of the
    window's ``t`` times ``weights`` give columns ``out_lo:out_hi`` of its
    ``(rows, heads · k)`` sums."""

    tail: slice
    head: slice
    products: Tuple[Tuple[int, int, np.ndarray, int, int], ...]


class _Plan(NamedTuple):
    """The windows of one window width, and the widest window's tail and
    head compositions (which size the evaluation's buffers)."""

    windows: Tuple[_Window, ...]
    tails: int
    heads: int


def _plan(table: _DenseTable, width: int) -> _Plan:
    """The table's :class:`_Plan` for windows ``width`` wide, made once
    per table and width."""
    plan = table.plans.get(width)
    if plan is None:
        windows = _windows(table, width)
        plan = table.plans[width] = _Plan(
            windows,
            max(window.tail.stop - window.tail.start for window in windows),
            max(window.head.stop - window.head.start for window in windows),
        )
    return plan


def _windows(table: _DenseTable, width: int) -> Tuple[_Window, ...]:
    """The windows of one block shape, at most ``width`` tail compositions
    and ``width`` head compositions times ``k`` wide: consecutive whole
    blocks of the table, or tiles of one block too large for a window."""
    tail_starts, head_starts = table.tail_starts, table.head_starts
    num_opinions = table.head.shape[1] + table.tail.shape[1] - 2
    head_step = max(1, width // num_opinions)
    windows = []
    first, blocks = 0, len(table.win_weight)
    while first < blocks:
        tail_start, head_start = tail_starts[first], head_starts[first]
        last = first
        while (
            last < blocks
            and tail_starts[last + 1] - tail_start <= width
            and head_starts[last + 1] - head_start <= head_step
        ):
            last += 1
        if last > first:
            windows.append(
                _Window(
                    slice(tail_start, tail_starts[last]),
                    slice(head_start, head_starts[last]),
                    tuple(
                        (
                            tail_starts[s] - tail_start,
                            tail_starts[s + 1] - tail_start,
                            table.win_weight[s],
                            (head_starts[s] - head_start) * num_opinions,
                            (head_starts[s + 1] - head_start) * num_opinions,
                        )
                        for s in range(first, last)
                    ),
                )
            )
            first = last
            continue
        # One block wider than a window: its tiles, each a window.
        block = table.win_weight[first]
        heads = head_starts[first + 1] - head_start
        for head_lo in range(0, heads, head_step):
            head_hi = min(head_lo + head_step, heads)
            columns = slice(head_lo * num_opinions, head_hi * num_opinions)
            for tail_lo in range(0, len(block), width):
                tail_hi = min(tail_lo + width, len(block))
                windows.append(
                    _Window(
                        slice(tail_start + tail_lo, tail_start + tail_hi),
                        slice(head_start + head_lo, head_start + head_hi),
                        (
                            (
                                0,
                                tail_hi - tail_lo,
                                block[tail_lo:tail_hi, columns],
                                0,
                                columns.stop - columns.start,
                            ),
                        ),
                    )
                )
        first += 1
    return tuple(windows)


def _log_rows(probabilities: np.ndarray) -> np.ndarray:
    """Log-probability rows ending in 1.0, the left operand of a log table.

    A zero-probability color gets a finite log surrogate, so a composition
    that uses it underflows to 0 (a row with no positive entry has every
    composition at 0 and comes back uniform from the normalization)."""
    rows, width = probabilities.shape
    log_probabilities = np.full((rows, width + 1), _DENSE_LOG_ZERO)
    np.log(
        probabilities, out=log_probabilities[:, :width], where=probabilities > 0
    )
    log_probabilities[:, width] = 1.0
    return log_probabilities


def dense_majority_vote_law(
    probabilities: np.ndarray,
    sample_size: int,
    runs: Optional[Sequence[Tuple[int, int]]] = None,
) -> np.ndarray:
    """Exact ``maj()`` pmf over *opinionated* observations.

    ``probabilities`` has shape ``(R, k)``: row ``r`` is trial ``r``'s color
    law of a voter's sample (every observation carries an opinion — the
    Stage-2 counts situation).  Returns the ``(R, k)`` vote pmf with the
    uniform tie-break folded in, then renormalized row-wise.  The result is
    the same distribution the bounded-chunk per-voter sampler draws from,
    at a cost per call that does not depend on the number of voters.
    Rows summing to zero (empty histograms, never voted from) come back
    uniform.

    The law sums over the compositions ``m = (x, y)`` of the sample split
    into head and tail counts (:func:`_dense_majority_vote_table`):
    ``P(vote c) = Σ_s Σ_{|x|=s} h(x) Σ_{|y|=L-s} t(y) W_c(x, y)``, with
    ``W`` the tie-split win weights.  The rows of a block are evaluated
    together in log space, one window of the table at a time
    (:func:`_windows`): a ``(rows, k - a + 1) @ (k - a + 1, c)`` GEMM of
    log-probabilities with a last entry of 1.0, which picks up the
    tail's log coefficients, yields ``log t`` and ``exp`` runs in place;
    then one GEMM per head size ``s``, ``t`` over ``Y_{L-s}`` times that
    block of win weights, gives the sums over ``y`` for each head
    composition and color; the same two steps over the head give ``h``,
    and a per-row contraction of ``h`` with the sums accumulates into the
    law.  One ``exp`` per head and per tail composition: 666 + 8,436 per
    row at ``k = 5``, ``L = 35``, against 82,251 compositions.  With no
    head (``k <= 3``) a window's sums are its share of the law, a window is
    a column chunk of the unsplit table, and the evaluation is the
    chunked GEMM of the unsplit law.  A window is at most
    :data:`_DENSE_CHUNK_ELEMENTS` divided by the block's row count wide,
    so a row's value depends on that count (and the GEMM kernels on the
    shape): the law is stable per block, not per row, and a block must be
    evaluated at its own row count to reproduce it.

    ``runs`` are :func:`block_matmul`'s ``(count, rows)`` runs of
    consecutive equal-sized blocks; the default is one block of all ``R``
    rows.  A run is evaluated in stacks of as many blocks as fit their
    buffers in :data:`_DENSE_STACK_ELEMENTS`, each GEMM one stacked
    ``(count, rows, ·) @ (·, ·)`` computation.  numpy applies the 2-D
    kernel to every slice at the shape and strides of a one-block call,
    and ``exp``, the contraction, the accumulation and the normalization
    are elementwise or per row, so every block's law is bitwise the law
    of that block alone.

    Raises ``ValueError`` when ``(sample_size, k)`` is beyond the dense
    budget — check :func:`dense_vote_law_is_tractable` first — or when
    ``runs`` do not cover the rows.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2 or probabilities.shape[1] < 1:
        raise ValueError(
            f"probabilities must have shape (R, k), got {probabilities.shape}"
        )
    rows, num_opinions = probabilities.shape
    if runs is None:
        runs = [(1, rows)]
    _check_runs(runs, rows)
    sample_size = require_positive_int(sample_size, "sample_size")
    if not dense_vote_law_is_tractable(sample_size, num_opinions):
        raise ValueError(
            f"the dense maj() table for sample_size={sample_size}, "
            f"k={num_opinions} is intractable; check "
            "dense_vote_law_is_tractable and use per-voter observation "
            "sampling instead"
        )
    table = _dense_majority_vote_table(sample_size, num_opinions)
    head_width = table.head.shape[1] - 1
    left_tail = _log_rows(probabilities[:, head_width:])
    if head_width:
        left_head = _log_rows(probabilities[:, :head_width])
    law = np.zeros((rows, num_opinions))
    first = 0
    for count, size in runs:
        plan = _plan(table, _chunk_width(size))
        # Per row: a window's t, its sums and (with a head) its h.
        widths = (plan.tails, plan.heads * num_opinions, plan.heads * (head_width > 0))
        most = max(1, _DENSE_STACK_ELEMENTS // max(size * sum(widths), 1))
        buffer = np.empty(min(most, count) * size * sum(widths))
        for done in range(0, count, most):
            stack = min(most, count - done)
            last = first + stack * size
            block_tail = left_tail[first:last].reshape(
                stack, size, left_tail.shape[1]
            )
            block_law = law[first:last].reshape(stack, size, num_opinions)
            for window in plan.windows:
                tails = window.tail.stop - window.tail.start
                heads = window.head.stop - window.head.start
                chunk, sums, head_pmf = _split(
                    buffer,
                    (stack, size),
                    (tails, heads * num_opinions, heads * (head_width > 0)),
                )
                np.matmul(block_tail, table.tail[window.tail].T, out=chunk)
                np.exp(chunk, out=chunk)
                for lo, hi, weights, out_lo, out_hi in window.products:
                    np.matmul(
                        chunk[..., lo:hi], weights, out=sums[..., out_lo:out_hi]
                    )
                if head_width:
                    np.matmul(
                        left_head[first:last].reshape(
                            stack, size, head_width + 1
                        ),
                        table.head[window.head].T,
                        out=head_pmf,
                    )
                    np.exp(head_pmf, out=head_pmf)
                    sums = np.matmul(
                        head_pmf[:, :, np.newaxis],
                        sums.reshape(stack, size, heads, num_opinions),
                    )[:, :, 0]
                block_law += sums
            first = last
    np.clip(law, 0.0, 1.0, out=law)
    row_sums = law.sum(axis=1, keepdims=True)
    return np.divide(
        law,
        row_sums,
        out=np.full(law.shape, 1.0 / num_opinions),
        where=row_sums > 0,
    )


def _chunk_width(rows: int) -> int:
    """Columns of one block's chunk of the dense law."""
    return max(1, _DENSE_CHUNK_ELEMENTS // max(rows, 1))


def _split(
    buffer: np.ndarray, shape: Tuple[int, int], widths: Sequence[int]
) -> List[np.ndarray]:
    """Consecutive ``shape + (width,)`` arrays carved from ``buffer``."""
    arrays = []
    start = 0
    for width in widths:
        stop = start + shape[0] * shape[1] * width
        arrays.append(buffer[start:stop].reshape(shape + (width,)))
        start = stop
    return arrays


def majority_vote_miss_bound(
    probabilities: np.ndarray, sample_size: Union[int, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row dominant color and a Chernoff bound on ``maj()`` missing it.

    ``probabilities`` has shape ``(R, k)``: row ``r`` is the color law of a
    voter's ``sample_size`` i.i.d. opinionated observations
    (``sample_size`` is one ``L`` or one per row).  Returns
    ``(dominant, bound)``: ``dominant[r]`` is the row's most likely color
    ``i*`` (0-based, the first on ties) and ``bound[r]`` is

        beta = sum_{j != i*} (1 - (sqrt(p_i*) - sqrt(p_j))^2)^L,

    the union of the pairwise Chernoff bounds on ``P(X_j >= X_i*)`` for
    ``X ~ Multinomial(L, p)`` (the optimal exponential moment of
    ``X_j - X_i*``).  ``maj()`` can vote ``j != i*`` only if
    ``X_j >= X_i*``, so ``1 - P(maj() = i*) <= beta``; tied or empty rows
    get ``beta >= 1``.  This is the paper's Stage-2 argument: the vote
    misses the plurality with probability ``exp(-Omega(delta^2 L))``.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    rows = np.arange(probabilities.shape[0])
    dominant = probabilities.argmax(axis=1)
    roots = np.sqrt(probabilities)
    gaps = roots[rows, dominant][:, np.newaxis] - roots
    terms = (1.0 - gaps * gaps) ** np.reshape(sample_size, (-1, 1))
    terms[rows, dominant] = 0.0
    return dominant, terms.sum(axis=1)


def _observe_single_core(
    opinions: np.ndarray, noise: NoiseMatrix, rng: np.random.Generator
) -> np.ndarray:
    """One trial's single-observation votes, length ``n`` (0 = saw undecided).

    The one-observation case never needs the ``(n, k)`` counts matrix, so it
    samples one target per node and applies noise to the opinionated
    observations directly.
    """
    num_nodes = opinions.shape[0]
    targets = rng.choice(np.arange(num_nodes), size=num_nodes, replace=True)
    observed = opinions[targets]
    votes = np.zeros(num_nodes, dtype=np.int64)
    observers = np.nonzero(observed > 0)[0]
    if observers.size:
        votes[observers] = noise.apply_to_opinions(observed[observers], rng)
    return votes


class UniformPullModel:
    """Noisy uniform pull: each node observes ``sample_size`` random nodes.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    noise:
        Noise matrix applied independently to every observed opinion.
    random_state:
        Randomness source.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self._rng = as_generator(random_state)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64).ravel()
        if array.shape[0] != self.num_nodes:
            raise ValueError(
                f"opinions must have length {self.num_nodes}, got {array.shape[0]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        *,
        include_undecided: bool = True,
    ) -> ReceivedMessages:
        """Each node observes ``sample_size`` uniformly random nodes' opinions.

        Observations are taken with replacement (as in the classical
        h-majority / 3-majority dynamics); undecided nodes contribute no
        opinion to the observation when drawn, so a node may end up observing
        fewer than ``sample_size`` opinions.  When ``include_undecided`` is
        ``False``, observation targets are restricted to opinionated nodes
        (if any exist).

        Returns
        -------
        ReceivedMessages
            Per-node counts of (noisy) observed opinions.
        """
        from repro.network.mailbox import ReceivedMessages

        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        return ReceivedMessages(
            _observe_core(
                opinions, sample_size, include_undecided, self.noise, self._rng
            )
        )

    def observe_single(self, opinions: np.ndarray) -> np.ndarray:
        """Each node observes one random node; returns the noisy opinions.

        Convenience entry point for the one-observation baselines (voter,
        undecided-state, median rule); the result is a length-``n`` vector of
        observed opinions with 0 marking "observed an undecided node".
        """
        opinions = self._validate_opinions(opinions)
        return _observe_single_core(opinions, self.noise, self._rng)


class EnsemblePullModel:
    """Noisy uniform pull over ``R`` independent trials as one batch.

    Observations are sampled from the compound channel (uniform target
    composed with per-message noise): each of a node's ``sample_size``
    observations is an independent categorical draw over
    ``{no opinion, 1, …, k}`` whose probabilities come from the trial's
    current opinion distribution pushed through the noise matrix.  This is
    exactly the distribution of the per-message engine and needs only one
    uniform block per trial per observation step.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` per trial.
    noise:
        Noise matrix applied independently to every observed opinion.

    The engine owns no randomness: every method takes the step's
    ``random_state`` and trial ``r`` draws from its own stream only (see
    :func:`~repro.utils.rng.as_trial_generators`), making batched runs
    reproducible trial by trial.
    """

    def __init__(self, num_nodes: int, noise: NoiseMatrix) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _validate_opinions(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError(
                f"ensemble opinions must be an (R, n) matrix, got shape {array.shape}"
            )
        if array.shape[1] != self.num_nodes:
            raise ValueError(
                f"opinions must have {self.num_nodes} columns, got {array.shape[1]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must be in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def observation_probabilities(
        self, opinions: np.ndarray, *, include_undecided: bool = True
    ) -> np.ndarray:
        """Per-trial observation distribution, shape ``(R, k+1)``.

        Column 0 is the "no opinion observed" mass (the undecided fraction,
        or 0 when targets are restricted to opinionated nodes); columns
        ``1..k`` are the noisy opinion masses ``c P`` (Eq. (2) applied to the
        observation channel).
        """
        return self._probabilities(
            self._validate_opinions(opinions), include_undecided
        )

    def _probabilities(
        self, opinions: np.ndarray, include_undecided: bool
    ) -> np.ndarray:
        """:meth:`observation_probabilities` minus the (already-done) checks."""
        counts = opinion_counts_matrix(
            opinions, self.num_opinions, validate=False
        )
        if include_undecided:
            shares = counts / self.num_nodes
            none_mass = 1.0 - shares.sum(axis=1, keepdims=True)
        else:
            totals = counts.sum(axis=1, keepdims=True)
            has_support = totals > 0
            shares = np.divide(
                counts,
                totals,
                out=np.zeros(counts.shape, dtype=float),
                where=has_support,
            )
            # All-undecided trials fall back to "observe nothing" (pool
            # restriction is vacuous when nobody holds an opinion).
            none_mass = np.where(has_support, 0.0, 1.0)
        return np.concatenate([none_mass, shares @ self.noise.matrix], axis=1)

    @staticmethod
    def _cumulative(probabilities: np.ndarray) -> np.ndarray:
        """Row-wise CDF with the last column pinned to 1 (uniforms < 1)."""
        cumulative = probabilities.copy()
        np.cumsum(cumulative, axis=1, out=cumulative)
        cumulative[:, -1] = 1.0
        return cumulative

    @staticmethod
    def _categorical(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF categories of ``uniforms`` (leading axis = trials)."""
        outcomes = np.zeros(uniforms.shape, dtype=np.int64)
        broadcast = (-1,) + (1,) * (uniforms.ndim - 1)
        for column in range(cumulative.shape[1] - 1):
            outcomes += uniforms >= cumulative[:, column].reshape(broadcast)
        return outcomes

    @staticmethod
    def _uniform_blocks(
        shape, random_state: EnsembleRandomState
    ) -> np.ndarray:
        """A ``(R, …)`` block of uniforms, one row per trial.

        Each trial's generator fills its own (contiguous) row — the single
        RNG interaction that trial makes for the step.
        """
        uniforms = np.empty(shape, dtype=np.float64)
        for trial, generator in enumerate(
            as_trial_generators(random_state, shape[0])
        ):
            generator.random(out=uniforms[trial])
        return uniforms

    def observe(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> EnsembleReceivedMessages:
        """Batched :meth:`UniformPullModel.observe` over an ``(R, n)`` matrix.

        Returns the per-trial, per-node counts of (noisy) observed opinions
        as an :class:`~repro.network.mailbox.EnsembleReceivedMessages`; the
        node-level counts are distributed exactly as the per-message engine's
        (independent ``Multinomial(sample_size, (1 - a, c P))`` draws per
        node).  One uniform block per trial, one batched inverse-CDF pass,
        one flattened bincount.
        """
        from repro.network.mailbox import EnsembleReceivedMessages

        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        num_trials = opinions.shape[0]
        cumulative = self._cumulative(
            self._probabilities(opinions, include_undecided)
        )
        uniforms = self._uniform_blocks(
            (num_trials, self.num_nodes, sample_size), random_state
        )
        outcomes = self._categorical(cumulative, uniforms)
        width = self.num_opinions + 1
        offsets = (
            np.arange(num_trials * self.num_nodes, dtype=np.int64) * width
        ).reshape(num_trials, self.num_nodes, 1)
        flat = np.bincount(
            (offsets + outcomes).ravel(),
            minlength=num_trials * self.num_nodes * width,
        )
        counts = np.ascontiguousarray(
            flat.reshape(num_trials, self.num_nodes, width)[..., 1:],
            dtype=np.int64,
        )
        return EnsembleReceivedMessages(counts)

    def observe_single(
        self,
        opinions: np.ndarray,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Batched :meth:`UniformPullModel.observe_single`; returns ``(R, n)``.

        Entry 0 marks "observed an undecided node"; one uniform per node per
        trial is the entire randomness budget of the step.
        """
        opinions = self._validate_opinions(opinions)
        cumulative = self._cumulative(self._probabilities(opinions, True))
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)

    def observe_majority_votes(
        self,
        opinions: np.ndarray,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        include_undecided: bool = True,
    ) -> np.ndarray:
        """Each node's ``maj()`` vote over ``sample_size`` observations, fused.

        The hot path of the batched h-majority dynamics: because a trial's
        nodes observe i.i.d. draws from the same compound channel, each
        node's majority vote (ties broken uniformly) is itself a categorical
        variable whose exact law follows from the per-trial observation
        probabilities via :func:`_majority_vote_table`.  Sampling that law
        directly costs one uniform per node — equivalent in distribution to
        :meth:`observe` followed by
        :meth:`~repro.network.mailbox.EnsembleReceivedMessages.majority_votes`
        (the test-suite checks the agreement), at a fraction of the work.

        Returns an ``(R, n)`` integer matrix; 0 means "observed no opinion,
        cast no vote".
        """
        sample_size = require_positive_int(sample_size, "sample_size")
        opinions = self._validate_opinions(opinions)
        if not _vote_table_is_tractable(sample_size, self.num_opinions):
            # Huge samples: enumerate observations instead of compositions
            # (same distribution, linear in sample_size like the sequential
            # engine), both steps drawing from the same per-trial streams.
            generators = as_trial_generators(random_state, opinions.shape[0])
            received = self.observe(
                opinions,
                sample_size,
                generators,
                include_undecided=include_undecided,
            )
            return received.majority_votes(generators)
        vote_pmf = majority_vote_law(
            self._probabilities(opinions, include_undecided), sample_size
        )
        cumulative = self._cumulative(vote_pmf)
        uniforms = self._uniform_blocks(
            (opinions.shape[0], self.num_nodes), random_state
        )
        return self._categorical(cumulative, uniforms)
