"""Process B: the balls-into-bins reformulation (Definition 3).

For a fixed phase, view the messages sent during the phase as colored balls
(one color per opinion) and the nodes as bins.  The process has two steps:

1. each ball of color ``i`` is independently re-colored ``j`` with
   probability ``p_ij`` (the noise acting on the message);
2. every ball is thrown into a bin chosen uniformly at random.

Claim 1 of the paper states that the end-of-phase state of the protocol under
the real push model (process O) has exactly the same distribution as if the
messages had been delivered by this process.  The engine below implements the
process directly from the phase's message histogram so that experiment E8 can
compare the two empirically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
    binomial_rows,
    multinomial_rows,
)
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages

__all__ = [
    "BallsIntoBinsProcess",
    "ensemble_recolor_and_throw",
    "HeterogeneousCountsDeliveryModel",
    "poisson_tail_probability",
]


# reprolint: counts-tier
@lru_cache(maxsize=64)
def _poisson_tail_tables(threshold: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(indices, log_factorial)`` work arrays of the Poisson tail.

    The tail is evaluated once per phase per threshold, and the same
    thresholds recur across phases, trials, sweep points and repeated engine
    construction — hoisting the ``O(L)`` cumulative-log table out of
    :func:`poisson_tail_probability` makes the per-call cost proportional to
    the batch size only.  The arrays are read-only views shared by every
    caller.
    """
    indices = np.arange(threshold, dtype=float)
    log_factorial = np.zeros(threshold)
    if threshold > 1:
        log_factorial[1:] = np.cumsum(np.log(np.arange(1, threshold)))
    indices.setflags(write=False)
    log_factorial.setflags(write=False)
    return indices, log_factorial


# reprolint: counts-tier
def poisson_tail_probability(threshold: int, lam: np.ndarray) -> np.ndarray:
    """``P(Poisson(lam) >= threshold)``, vectorized over ``lam``.

    Computed in log space (no scipy dependency) so that phase intensities in
    the hundreds — the Stage-2 final phase has ``Lambda ~ 2 L' ~ log n /
    eps^2`` — neither underflow ``exp(-Lambda)`` nor lose the tail.  Exact
    up to float64 rounding.
    """
    lam = np.asarray(lam, dtype=float)
    if threshold <= 0:
        return np.ones(lam.shape)
    indices, log_factorial = _poisson_tail_tables(threshold)
    positive = lam > 0
    all_positive = lam.ndim > 0 and bool(positive.all())
    if not all_positive and not positive.any():
        return np.zeros(lam.shape)
    lam_pos = lam if all_positive else lam[positive]
    log_terms = (
        -lam_pos[:, np.newaxis]
        + indices[np.newaxis, :] * np.log(lam_pos)[:, np.newaxis]
        - log_factorial[np.newaxis, :]
    )
    top = log_terms.max(axis=1)
    cdf = np.exp(top) * np.exp(
        log_terms - top[:, np.newaxis]
    ).sum(axis=1)
    if all_positive:
        return np.clip(1.0 - cdf, 0.0, 1.0)
    tail = np.zeros(lam.shape)
    tail[positive] = np.clip(1.0 - cdf, 0.0, 1.0)
    return tail


#: Largest certified miss bound ``voters * beta`` (see
#: :func:`~repro.network.pull_model.majority_vote_miss_bound`) of a row that
#: draws its votes from the point law on its dominant color.  It bounds the
#: total variation distance between those tallies and the exact ones, and
#: sits below float64 resolution, the exact law's own rounding.
_POINT_LAW_MAX_MISS = 2.0**-53


# reprolint: counts-tier
class HeterogeneousCountsDeliveryModel:
    """Counts-native phase delivery: Claim-1 recoloring + Poissonized bins.

    The counts tier's substitute for a per-node delivery engine.  A phase
    is reduced to its message histogram (Claim 1's balls-into-bins
    reformulation, Definition 3): step 1 — every ball is re-colored through
    the noise matrix — is sampled *exactly* with one multinomial per color
    (:meth:`recolor`).  Step 2 — throwing the balls into the ``n`` bins —
    is summarized under the Poissonized process P (Definition 4, the
    paper's own analysis device): every node independently receives
    ``Poisson(h_i / n)`` copies of opinion ``i``, which makes the per-node
    outcomes i.i.d. and therefore reducible to ``O(k)`` closed-form
    probabilities per row:

    * Stage-1 adoption (:meth:`adoption_probabilities`): by Poisson
      splitting, a node that received at least one ball adopts color ``j``
      with probability ``h_j / B`` independent of how many balls arrived,
      so the per-node outcome law over {stay undecided, adopt 1, …, adopt
      k} is ``(e^-Lambda, (1 - e^-Lambda) h / B)`` with
      ``Lambda = B / n``.
    * Stage-2 eligibility (:meth:`update_probability`): a node re-votes iff
      it received at least ``L`` messages, an event of probability
      ``P(Poisson(Lambda) >= L)``.
    * Stage-2 votes (:meth:`vote_probabilities`): a size-``L`` uniform
      subsample of i.i.d.-colored arrivals is ``L`` i.i.d. draws from
      ``h / B`` — exactly the observation law the ``maj()`` vote law
      consumes.

    Lemma 2 bounds the distance between process P and the real push process
    O, so protocol runs under this model agree with the per-node engines
    statistically (checked by the engine-agreement test-suite).

    Rows of one ``(A, k)`` histogram matrix belong to contiguous blocks
    (one block per grid point), each with its own bin count ``n``, noise
    channel and Stage-2 sample size.  Every method gives each row exactly
    the values and random draws a model built for that row's block alone
    would give it: merged evaluation is used only for operations whose
    floating-point result is row-stable (elementwise arithmetic and per-row
    reductions), while the ``maj()`` vote law (a wide matmul whose
    summation tree depends on the batch shape) is always evaluated per
    block at the block's own row count.  This is what makes a sweep's
    per-point results bitwise identical to a serial per-scenario loop.

    Parameters
    ----------
    block_slices:
        Contiguous, non-overlapping slices partitioning ``range(A)``, one
        per grid point.
    num_nodes:
        One bin count per block: the whole population, faulty nodes
        included.
    noises:
        One :class:`~repro.noise.matrix.NoiseMatrix` per block; all blocks
        must share the same number of opinions ``k``.
    """

    def __init__(
        self,
        block_slices: Sequence[slice],
        num_nodes: Sequence[int],
        noises: Sequence[NoiseMatrix],
    ) -> None:
        if not block_slices:
            raise ValueError("at least one block is required")
        if not (len(block_slices) == len(num_nodes) == len(noises)):
            raise ValueError(
                "block_slices, num_nodes and noises must have equal length"
            )
        for noise in noises:
            if not isinstance(noise, NoiseMatrix):
                raise TypeError(
                    f"noise must be a NoiseMatrix, got {type(noise).__name__}"
                )
        self.num_opinions = noises[0].num_opinions
        if any(noise.num_opinions != self.num_opinions for noise in noises):
            raise ValueError(
                "every block must have the same number of opinions"
            )
        self.block_slices = list(block_slices)
        self.block_num_nodes = [
            require_positive_int(n, "num_nodes") for n in num_nodes
        ]
        self.noises = list(noises)
        total = 0
        rows_nodes = []
        for block, sl in enumerate(self.block_slices):
            if sl.start != total or sl.stop <= sl.start:
                raise ValueError(
                    "block_slices must be contiguous, non-empty and ordered"
                )
            total = sl.stop
            rows_nodes.append(
                np.full(sl.stop - sl.start, self.block_num_nodes[block], dtype=np.int64)
            )
        self.num_rows = total
        #: Per-row bin count, shape ``(A,)``.
        self.num_nodes = np.concatenate(rows_nodes)
        #: First row and row count of each block, shape ``(blocks,)``.
        self._block_starts = np.array(
            [sl.start for sl in self.block_slices], dtype=np.intp
        )
        self._block_rows = np.array(
            [sl.stop - sl.start for sl in self.block_slices], dtype=np.intp
        )
        self._vote_paths: Dict[int, str] = {}

    def _validate_histograms(self, histograms: np.ndarray) -> np.ndarray:
        array = np.asarray(histograms, dtype=np.int64)
        if array.shape != (self.num_rows, self.num_opinions):
            raise ValueError(
                f"histograms must have shape ({self.num_rows}, "
                f"{self.num_opinions}), got shape {array.shape}"
            )
        if array.size and array.min() < 0:
            raise ValueError("histogram entries must be non-negative")
        return array

    def _resolve_vote_path(self, sample_size: int) -> str:
        """Which exact sampler serves an uncertified block of ``sample_size``.

        ``"dense"`` — the exact dense table over opinionated observations
        (every ``(sample_size, k)`` the closed-form table admits, any
        sample size for ``k = 2`` and thousands for ``k = 3``); ``"chunk"``
        — the bounded-chunk per-voter sampler (``O(num_voters)`` work).
        The decision depends only on ``(sample_size, k)``, so it is made
        once per sample size.  :meth:`vote_paths` replaces it with
        ``"point"`` for the blocks a Chernoff bound certifies.
        """
        from repro.network.pull_model import (  # local: avoid import cycle
            dense_vote_law_is_tractable,
        )

        path = self._vote_paths.get(sample_size)
        if path is None:
            path = (
                "dense"
                if dense_vote_law_is_tractable(sample_size, self.num_opinions)
                else "chunk"
            )
            self._vote_paths[sample_size] = path
        return path

    def recolor(
        self, histograms: np.ndarray, generators: Sequence
    ) -> np.ndarray:
        """Exact per-row noise re-coloring (one block's channel per row).

        ``generators`` holds one generator per row.  Row ``r`` draws what
        :meth:`~repro.noise.matrix.NoiseMatrix.apply_to_counts` draws, one
        multinomial per nonzero source opinion in ascending order, through
        :func:`~repro.utils.rng.multinomial_rows`.
        """
        histograms = self._validate_histograms(histograms)
        return multinomial_rows(
            generators, histograms, self._row_channels()
        ).sum(axis=1)

    def _row_channels(self) -> np.ndarray:
        """Per-row channel laws, shape ``(A, k, k)``.

        ``channels[r, s]`` is row ``s`` of the noise matrix governing merged
        row ``r``: every row's own channel, one law per source opinion, for
        one :func:`~repro.utils.rng.multinomial_rows` call.  Built once per
        (cached) submodel.
        """
        cached = self.__dict__.get("_row_channels_cache")
        if cached is None:
            cached = np.repeat(
                np.stack([noise.matrix for noise in self.noises]),
                self._block_rows,
                axis=0,
            )
            self.__dict__["_row_channels_cache"] = cached
        return cached

    def adoption_probabilities(self, noisy_histograms: np.ndarray) -> np.ndarray:
        """Stage-1 outcome laws with per-row ``n``, shape ``(A, k + 1)``."""
        noisy = self._validate_histograms(noisy_histograms)
        totals = noisy.sum(axis=1, dtype=np.int64)
        lam = totals / self.num_nodes
        none_mass = np.exp(-lam)
        shares = np.divide(
            noisy,
            totals[:, np.newaxis],
            out=np.zeros(noisy.shape, dtype=float),
            where=totals[:, np.newaxis] > 0,
        )
        probabilities = (1.0 - none_mass)[:, np.newaxis] * shares
        return np.concatenate(
            [none_mass[:, np.newaxis], probabilities], axis=1
        )

    def sample_adoptions(
        self,
        noisy_histograms: np.ndarray,
        undecided_counts: np.ndarray,
        generators: Sequence,
    ) -> np.ndarray:
        """Stage-1 adoptions: one multinomial per row, from the row's
        generator."""
        noisy = self._validate_histograms(noisy_histograms)
        undecided = np.asarray(undecided_counts, dtype=np.int64)
        probabilities = self.adoption_probabilities(noisy)
        return multinomial_rows(generators, undecided, probabilities)

    def update_probability(
        self, noisy_histograms: np.ndarray, sample_sizes: np.ndarray
    ) -> np.ndarray:
        """Per-row Stage-2 eligibility with per-row thresholds.

        ``sample_sizes`` is an ``(A,)`` integer vector; rows sharing a
        threshold are evaluated in one merged (row-stable) tail call.
        """
        noisy = self._validate_histograms(noisy_histograms)
        thresholds = np.asarray(sample_sizes, dtype=np.int64)
        totals = noisy.sum(axis=1, dtype=np.int64)
        lam = totals / self.num_nodes
        tail = np.empty(self.num_rows, dtype=float)
        # Not np.unique: on numpy 2.x its first call imports numpy.ma, a
        # cost every cold counts-protocol process would pay.
        for threshold in sorted(set(thresholds.tolist())):
            mask = thresholds == threshold
            tail[mask] = poisson_tail_probability(threshold, lam[mask])
        return tail

    def sample_updaters(
        self,
        group_sizes: np.ndarray,
        update_probability: np.ndarray,
        generators: Sequence,
    ) -> np.ndarray:
        """Stage-2 re-voter counts: one binomial per nonzero (row, group),
        from the row's generator."""
        group_sizes = np.asarray(group_sizes, dtype=np.int64)
        probabilities = np.asarray(update_probability)
        return binomial_rows(generators, group_sizes, probabilities)

    def vote_probabilities(self, noisy_histograms: np.ndarray) -> np.ndarray:
        """The per-row i.i.d. color law of a re-voter's sample."""
        noisy = self._validate_histograms(noisy_histograms)
        totals = noisy.sum(axis=1, keepdims=True, dtype=np.int64)
        return np.divide(
            noisy,
            totals,
            out=np.zeros(noisy.shape, dtype=float),
            where=totals > 0,
        )

    def vote_paths(
        self,
        noisy_histograms: np.ndarray,
        num_voters: np.ndarray,
        sample_sizes: Sequence[int],
    ) -> List[str]:
        """The vote path :meth:`sample_vote_counts` takes for each block.

        ``"point"`` when every row of the block has ``voters * beta <=
        2^-53``, ``beta`` being the Chernoff bound of
        :func:`~repro.network.pull_model.majority_vote_miss_bound`: all the
        row's voters then vote its dominant color, except with a
        probability below float64 resolution.  Otherwise the block's exact
        path, :meth:`_resolve_vote_path`.  The choice is made per block,
        not per row, because the dense law's GEMM is not row-stable across
        row subsets; one ``logical_and.reduceat`` over the block starts
        decides every block.
        """
        from repro.network.pull_model import (  # local: avoid import cycle
            majority_vote_miss_bound,
        )

        voters = np.asarray(num_voters, dtype=np.int64)
        row_sample_sizes = np.repeat(
            np.asarray(sample_sizes, dtype=np.int64), self._block_rows
        )
        _, bounds = majority_vote_miss_bound(
            self.vote_probabilities(noisy_histograms), row_sample_sizes
        )
        certified = np.logical_and.reduceat(
            voters * bounds <= _POINT_LAW_MAX_MISS, self._block_starts
        )
        return [
            "point" if block_certified else self._resolve_vote_path(int(size))
            for block_certified, size in zip(certified.tolist(), sample_sizes)
        ]

    def sample_vote_counts(
        self,
        noisy_histograms: np.ndarray,
        num_voters: np.ndarray,
        sample_sizes: Sequence[int],
        generators: Sequence,
    ) -> Tuple[np.ndarray, List[str]]:
        """Per-row ``maj()`` vote tallies with a per-block sample size.

        Returns ``(votes, vote_paths)``: the ``(A, k)`` tallies and the
        path each block took, named by :meth:`vote_paths`, which runs once
        per call, so callers record the paths without a second certificate.
        A ``"point"`` block evaluates no law: its rows draw from the point
        law on their dominant color, through the same per-row multinomials
        as the law rows, so a row whose dominant color is opinion 1 leaves
        its generator where the exact law would.  The substitution moves each
        row's tallies by at most the certified total variation distance
        ``voters * beta <= 2^-53``.

        The ``"dense"`` blocks of one sample size share one call of
        :func:`~repro.network.pull_model.dense_majority_vote_law`, whose
        ``runs`` evaluate each block at its own row shape (the law's GEMM
        is not row-stable across batch sizes), so a sweep point's rows get
        the law of its serial run.  The ``"point"`` rows get their point
        laws in one array operation, and the per-row multinomials are merged
        over every law row.  Blocks beyond
        the dense budget use the bounded-chunk per-voter sampler
        (:meth:`_sample_chunk_votes`), one block at a time in block order.
        The dense law is the *same distribution* as the chunk sampler but
        consumes different raw draws, so moving a phase from one to the
        other is a distributional (not bitwise) change — see
        ``docs/performance.md``.

        ``generators`` holds one generator per row; the chunk blocks draw
        first, in block order, then every law row through one
        :func:`~repro.utils.rng.multinomial_rows` call.
        """
        from repro.network.pull_model import (  # local: avoid import cycle
            _size_runs,
            dense_majority_vote_law,
        )

        noisy = self._validate_histograms(noisy_histograms)
        voters = np.asarray(num_voters, dtype=np.int64)
        vote_paths = self.vote_paths(noisy, voters, sample_sizes)
        vote_law_probabilities = self.vote_probabilities(noisy)
        votes = np.empty((self.num_rows, self.num_opinions), dtype=np.int64)
        vote_pmf = np.zeros((self.num_rows, self.num_opinions), dtype=float)
        law_rows = np.ones(self.num_rows, dtype=bool)
        point_blocks: List[int] = []
        dense_blocks: Dict[int, List[int]] = {}
        for block, sl in enumerate(self.block_slices):
            if vote_paths[block] == "point":
                point_blocks.append(block)
            elif vote_paths[block] == "dense":
                dense_blocks.setdefault(int(sample_sizes[block]), []).append(
                    block
                )
            elif vote_paths[block] == "chunk":
                law_rows[sl] = False
                votes[sl] = self._sample_chunk_votes(
                    vote_law_probabilities[sl],
                    voters[sl],
                    int(sample_sizes[block]),
                    generators[sl],
                )
        if point_blocks:
            rows = self._rows_of(point_blocks)
            vote_pmf[rows] = np.eye(self.num_opinions)[
                vote_law_probabilities[rows].argmax(axis=1)
            ]
        if dense_blocks:
            # The dense rows grouped by sample size: one gather, then one
            # law call per size on a contiguous slice, then one scatter.
            ordered = [block for blocks in dense_blocks.values() for block in blocks]
            rows = self._rows_of(ordered)
            dense_probabilities = vote_law_probabilities[rows]
            dense_pmf = np.empty_like(dense_probabilities)
            first = 0
            for sample_size, blocks in dense_blocks.items():
                sizes = [
                    self.block_slices[block].stop - self.block_slices[block].start
                    for block in blocks
                ]
                last = first + sum(sizes)
                dense_pmf[first:last] = dense_majority_vote_law(
                    dense_probabilities[first:last], sample_size, _size_runs(sizes)
                )
                first = last
            vote_pmf[rows] = dense_pmf
        if law_rows.any():
            drawn = multinomial_rows(
                generators, np.where(law_rows, voters, 0), vote_pmf
            )
            votes[law_rows] = drawn[law_rows]
        return votes, vote_paths

    def _rows_of(self, blocks: List[int]):
        """The merged rows of ``blocks``, in that order: a slice when the
        blocks are consecutive and ascending, as one block always is (it
        spares a one-block call the copies of a gather), else an index
        array."""
        slices = [self.block_slices[block] for block in blocks]
        if blocks == list(range(blocks[0], blocks[0] + len(blocks))):
            return slice(slices[0].start, slices[-1].stop)
        # Each block's rows are its start plus 0, 1, ...: one arange over
        # all the rows, shifted per block by start minus the block's offset.
        sizes = np.array([sl.stop - sl.start for sl in slices])
        shifts = np.array([sl.start for sl in slices]) - (np.cumsum(sizes) - sizes)
        return np.arange(sizes.sum()) + np.repeat(shifts, sizes)

    #: Bounded chunk size of the per-voter sampler: keeps every
    #: intermediate array ``O(chunk * k)`` regardless of how many of the
    #: ``n`` nodes re-vote in a phase.
    VOTE_CHUNK = 32_768

    def _sample_chunk_votes(
        self,
        vote_law_probabilities: np.ndarray,
        num_voters: np.ndarray,
        sample_size: int,
        generators: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Per-voter ``maj()`` tallies for the rows of one block.

        Enumerates each voter's sample composition directly (a ``k``-cell
        multinomial) and tallies the argmax with uniform tie-break keys —
        distribution-identical to the closed form, with every array bounded
        by :attr:`VOTE_CHUNK` voters.  Row ``r`` draws from
        ``generators[r]``.
        """
        votes = np.zeros(vote_law_probabilities.shape, dtype=np.int64)
        for row, generator in enumerate(generators):
            remaining = int(num_voters[row])
            if remaining == 0:
                continue
            pvals = vote_law_probabilities[row]
            if pvals.sum() <= 0:
                raise ValueError(
                    "cannot sample votes from an empty message histogram"
                )
            while remaining > 0:
                chunk = min(remaining, self.VOTE_CHUNK)
                compositions = generator.multinomial(
                    sample_size, pvals, size=chunk
                )
                tie_keys = generator.random(compositions.shape)
                winners = (compositions + tie_keys).argmax(axis=1)
                votes[row] += np.bincount(winners, minlength=self.num_opinions)
                remaining -= chunk
        return votes


def ensemble_recolor_and_throw(
    num_nodes: int,
    noise: NoiseMatrix,
    message_histograms: np.ndarray,
    random_state: EnsembleRandomState,
) -> EnsembleReceivedMessages:
    """Run the two-step process of Definition 3 for ``R`` trials at once.

    ``message_histograms`` has shape ``(R, k)``: row ``r`` is trial ``r``'s
    phase message multiset ``M_j``.  Step 1 re-colors every ball through the
    noise matrix; step 2 throws every ball into a uniform bin, realized as a
    multinomial over the ``n`` bins (``O(n)`` per trial and color, however
    many balls are in flight).  This sampler also backs the batched push
    engine: by Claim 1 the end-of-phase counts of process O are distributed
    exactly as this process's output.

    Trial ``r``'s balls consume only trial ``r``'s generator (see
    :func:`~repro.utils.rng.as_trial_generators`).
    """
    from repro.network.mailbox import EnsembleReceivedMessages

    histograms = np.asarray(message_histograms, dtype=np.int64)
    if histograms.ndim != 2 or histograms.shape[1] != noise.num_opinions:
        raise ValueError(
            f"message_histograms must have shape (R, {noise.num_opinions}), "
            f"got shape {histograms.shape}"
        )
    if np.any(histograms < 0):
        raise ValueError("message_histogram entries must be non-negative")
    num_trials = histograms.shape[0]
    bins = np.full(num_nodes, 1.0 / num_nodes)
    counts = np.zeros(
        (num_trials, num_nodes, noise.num_opinions), dtype=np.int64
    )
    generators = as_trial_generators(random_state, num_trials)
    for trial, generator in enumerate(generators):
        noisy = noise.apply_to_counts(histograms[trial], generator)
        for opinion_index in np.nonzero(noisy)[0]:
            counts[trial, :, opinion_index] = generator.multinomial(
                int(noisy[opinion_index]), bins
            )
    return EnsembleReceivedMessages(counts)


class BallsIntoBinsProcess:
    """The two-step balls-into-bins process of Definition 3.

    Parameters
    ----------
    num_nodes:
        Number of bins ``n`` (= number of nodes).
    noise:
        The noise matrix used for the re-coloring step.
    random_state:
        Randomness for re-coloring and throwing.
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
        """Number of ball colors ``k``."""
        return self.noise.num_opinions

    def _validate_histogram(self, message_histogram: Sequence[int]) -> np.ndarray:
        histogram = np.asarray(message_histogram, dtype=np.int64)
        if histogram.shape != (self.num_opinions,):
            raise ValueError(
                f"message_histogram must have length {self.num_opinions}, "
                f"got shape {histogram.shape}"
            )
        if np.any(histogram < 0):
            raise ValueError("message_histogram entries must be non-negative")
        return histogram

    def recolor(self, message_histogram: Sequence[int]) -> np.ndarray:
        """Step 1: apply the noise to every ball independently.

        Returns the post-noise histogram ``h`` (the paper's ``N_j`` counts).
        """
        histogram = self._validate_histogram(message_histogram)
        return self.noise.apply_to_counts(histogram, self._rng)

    def throw(self, noisy_histogram: Sequence[int]) -> ReceivedMessages:
        """Step 2: throw every (already re-colored) ball into a uniform bin."""
        from repro.network.mailbox import ReceivedMessages

        histogram = self._validate_histogram(noisy_histogram)
        counts = np.zeros((self.num_nodes, self.num_opinions), dtype=np.int64)
        for opinion_index in np.nonzero(histogram)[0]:
            targets = self._rng.integers(
                0, self.num_nodes, size=int(histogram[opinion_index])
            )
            counts[:, opinion_index] += np.bincount(
                targets, minlength=self.num_nodes
            )
        return ReceivedMessages(counts)

    def run_phase(self, message_histogram: Sequence[int]) -> ReceivedMessages:
        """Run both steps for a phase described by its message histogram.

        ``message_histogram[i]`` is the number of messages carrying opinion
        ``i + 1`` sent during the phase (the multiset ``M_j``): for the
        paper's protocol this is ``num_rounds`` times the sender-opinion
        histogram, since every opinionated node pushes once per round.
        """
        noisy = self.recolor(message_histogram)
        return self.throw(noisy)

    def run_phase_from_senders(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Convenience wrapper mirroring ``UniformPushModel.run_phase``.

        Builds ``M_j`` from the sender opinions (each sender contributes
        ``num_rounds`` balls of its color) and runs the process.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = np.asarray(sender_opinions, dtype=np.int64).ravel()
        if opinions.size and (opinions.min() < 1 or opinions.max() > self.num_opinions):
            raise ValueError(
                f"sender opinions must be in [1, {self.num_opinions}]"
            )
        histogram = np.bincount(opinions, minlength=self.num_opinions + 1)[1:]
        return self.run_phase(histogram * num_rounds)

    def run_ensemble_phase_from_senders(
        self,
        sender_histograms: np.ndarray,
        num_rounds: int,
        random_state: EnsembleRandomState,
    ) -> EnsembleReceivedMessages:
        """Batched phase delivery for ``R`` trials (shape ``(R, k)`` input).

        Row ``r`` of ``sender_histograms`` is trial ``r``'s sender-opinion
        histogram; each sender contributes ``num_rounds`` balls, and trial
        ``r`` draws from its own stream of ``random_state``.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        histograms = np.asarray(sender_histograms, dtype=np.int64)
        return ensemble_recolor_and_throw(
            self.num_nodes, self.noise, histograms * num_rounds, random_state
        )
