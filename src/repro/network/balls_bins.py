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
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
    is_generator_sequence,
)
from repro.utils.validation import require_positive_int

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
        """Which sampler :meth:`sample_vote_counts` uses for ``sample_size``.

        ``"table"`` — the closed-form composition table over
        {no opinion, 1, …, k} (small samples); ``"dense"`` — the exact dense
        table over opinionated observations only (large samples, any ``k=2``
        and thousands for ``k=3``); ``"chunk"`` — the bounded-chunk
        per-voter sampler (``O(num_voters)`` work).  The decision depends
        only on ``(sample_size, k)``, so it is made once per sample size.
        """
        from repro.network.pull_model import (  # local: avoid import cycle
            dense_vote_law_is_tractable,
            vote_table_is_tractable,
        )

        path = self._vote_paths.get(sample_size)
        if path is None:
            if vote_table_is_tractable(sample_size, self.num_opinions):
                path = "table"
            elif dense_vote_law_is_tractable(sample_size, self.num_opinions):
                path = "dense"
            else:
                path = "chunk"
            self._vote_paths[sample_size] = path
        return path

    def build_vote_law_tables(self, sample_sizes: Sequence[int]) -> None:
        """Build now the dense ``maj()`` tables that ``sample_sizes`` need.

        The dense tables outlive the run (an LRU in
        :mod:`repro.network.pull_model`).  Built in the final phase instead,
        after the closed-form path's large per-phase temporaries, they
        fragment the heap: one ``n = 10^6``, ``k = 3`` run then peaks about
        10% higher in resident memory.  When more tables are needed than
        the LRU holds, they are left to be built in their phases, so none is
        evicted before use.
        """
        from repro.network.pull_model import _dense_majority_vote_table

        dense = sorted(
            {size for size in sample_sizes if self._resolve_vote_path(size) == "dense"}
        )
        if len(dense) <= _dense_majority_vote_table.cache_info().maxsize:
            for sample_size in dense:
                _dense_majority_vote_table(sample_size, self.num_opinions)

    def recolor(
        self, histograms: np.ndarray, generators
    ) -> np.ndarray:
        """Exact per-row noise re-coloring (one block's channel per row).

        ``generators`` is either one source per row (per-trial mode: row
        ``r`` consumes exactly its serial draws) or a single shared stream
        (batched mode: one column-wise multinomial per block and source
        opinion — far fewer generator calls, different draw order).
        """
        histograms = self._validate_histograms(histograms)
        if is_generator_sequence(generators):
            noisy = np.empty_like(histograms)
            for block, sl in enumerate(self.block_slices):
                noisy[sl] = self.noises[block].recolor_rows(
                    histograms[sl], generators[sl.start : sl.stop]
                )
            return noisy
        rng = as_generator(generators)
        noisy = np.zeros_like(histograms)
        stacked = self._stacked_noise_rows()
        for source in range(self.num_opinions):
            column = histograms[:, source]
            if column.any():
                noisy += rng.multinomial(column, stacked[source])
        return noisy

    def _stacked_noise_rows(self) -> np.ndarray:
        """Per-source per-row channel laws, shape ``(k, A, k)``.

        ``stacked[s, r]`` is row ``s`` of the noise matrix governing merged
        row ``r`` — the pvals layout that lets shared-stream recoloring draw
        one batched multinomial per *source opinion* across every block at
        once, instead of one numpy call per block and source.  Built once
        per (cached) submodel.
        """
        cached = self.__dict__.get("_stacked_noise_rows_cache")
        if cached is None:
            k = self.num_opinions
            cached = np.empty((k, self.num_rows, k))
            for block, sl in enumerate(self.block_slices):
                cached[:, sl, :] = self.noises[block].matrix[
                    :, np.newaxis, :
                ]
            self.__dict__["_stacked_noise_rows_cache"] = cached
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
        generators,
    ) -> np.ndarray:
        """Stage-1 adoptions: one multinomial per row from its own stream
        (per-trial mode) or one batched multinomial (shared-stream mode)."""
        noisy = self._validate_histograms(noisy_histograms)
        undecided = np.asarray(undecided_counts, dtype=np.int64)
        probabilities = self.adoption_probabilities(noisy)
        if not is_generator_sequence(generators):
            rng = as_generator(generators)
            return rng.multinomial(undecided, probabilities).astype(
                np.int64, copy=False
            )
        adopted = np.empty(
            (self.num_rows, self.num_opinions + 1), dtype=np.int64
        )
        undecided_list = undecided.tolist()
        for row in range(self.num_rows):
            adopted[row] = generators[row].multinomial(
                undecided_list[row], probabilities[row]
            )
        return adopted

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
        for threshold in np.unique(thresholds):
            mask = thresholds == threshold
            tail[mask] = poisson_tail_probability(int(threshold), lam[mask])
        return tail

    def sample_updaters(
        self,
        group_sizes: np.ndarray,
        update_probability: np.ndarray,
        generators,
    ) -> np.ndarray:
        """Stage-2 re-voter counts: one binomial per row (per-trial mode)
        or one batched binomial over the whole matrix (shared-stream)."""
        group_sizes = np.asarray(group_sizes, dtype=np.int64)
        probabilities = np.asarray(update_probability)
        if not is_generator_sequence(generators):
            rng = as_generator(generators)
            return rng.binomial(
                group_sizes, probabilities[:, np.newaxis]
            ).astype(np.int64, copy=False)
        updaters = np.empty(group_sizes.shape, dtype=np.int64)
        sizes = group_sizes.tolist()
        probability_list = probabilities.tolist()
        for row in range(updaters.shape[0]):
            updaters[row] = generators[row].binomial(
                sizes[row], probability_list[row]
            )
        return updaters

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

    def sample_vote_counts(
        self,
        noisy_histograms: np.ndarray,
        num_voters: np.ndarray,
        sample_sizes: Sequence[int],
        generators: Sequence,
    ) -> np.ndarray:
        """Per-row ``maj()`` vote tallies with a per-block sample size.

        The vote law is evaluated *per block* (at the block's own row
        shape — the wide composition matmul is not row-stable across batch
        sizes); the clip/renormalization and the per-row multinomials are
        merged.  Blocks beyond the closed-form table budget use the dense
        large-sample law (evaluated row by row, hence row-stable) when
        tractable, and otherwise the bounded-chunk per-voter sampler
        (:meth:`_sample_chunk_votes`).  The dense law is the *same
        distribution* as the chunk sampler but consumes different raw
        draws, so moving a phase from one to the other is a distributional
        (not bitwise) change — see ``docs/performance.md``.

        ``generators`` is one source per row (each row consumes exactly its
        serial draws) or a single shared stream.
        """
        from repro.network.pull_model import (  # local: avoid import cycle
            dense_majority_vote_law,
            majority_vote_law,
        )

        noisy = self._validate_histograms(noisy_histograms)
        voters = np.asarray(num_voters, dtype=np.int64)
        per_trial = is_generator_sequence(generators)
        shared_rng = None if per_trial else as_generator(generators)
        vote_law_probabilities = self.vote_probabilities(noisy)
        observation_law = np.concatenate(
            [np.zeros((self.num_rows, 1)), vote_law_probabilities], axis=1
        )
        votes = np.empty((self.num_rows, self.num_opinions), dtype=np.int64)
        law = np.zeros((self.num_rows, self.num_opinions + 1), dtype=float)
        dense_pmf = np.empty((self.num_rows, self.num_opinions), dtype=float)
        tractable_rows = np.zeros(self.num_rows, dtype=bool)
        dense_rows = np.zeros(self.num_rows, dtype=bool)
        for block, sl in enumerate(self.block_slices):
            sample_size = int(sample_sizes[block])
            vote_path = self._resolve_vote_path(sample_size)
            if vote_path == "table":
                law[sl] = majority_vote_law(observation_law[sl], sample_size)
                tractable_rows[sl] = True
            elif vote_path == "dense":
                dense_pmf[sl] = dense_majority_vote_law(
                    vote_law_probabilities[sl], sample_size
                )
                dense_rows[sl] = True
            else:
                votes[sl] = self._sample_chunk_votes(
                    vote_law_probabilities[sl],
                    voters[sl],
                    sample_size,
                    generators[sl]
                    if per_trial
                    else [shared_rng] * (sl.stop - sl.start),
                )
        law_rows = tractable_rows | dense_rows
        if law_rows.any():
            vote_pmf = np.clip(law, 0.0, 1.0)[:, 1:]
            row_sums = vote_pmf.sum(axis=1, keepdims=True)
            vote_pmf = np.divide(
                vote_pmf,
                row_sums,
                out=np.full(vote_pmf.shape, 1.0 / self.num_opinions),
                where=row_sums > 0,
            )
            if dense_rows.any():
                vote_pmf[dense_rows] = dense_pmf[dense_rows]
            if per_trial:
                voters_list = voters.tolist()
                for row in np.nonzero(law_rows)[0]:
                    votes[row] = generators[row].multinomial(
                        voters_list[row], vote_pmf[row]
                    )
            else:
                votes[law_rows] = shared_rng.multinomial(
                    voters[law_rows], vote_pmf[law_rows]
                )
        return votes

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
