"""Per-node received-message bookkeeping.

All three communication processes (O, B, P) report what each node received
during a phase as a dense integer matrix of shape ``(num_nodes, num_opinions)``:
entry ``(u, i)`` is the number of copies of opinion ``i + 1`` delivered to
node ``u`` during the phase.  :class:`ReceivedMessages` wraps that matrix with
the sampling operations the protocol needs (uniform sub-sampling of the
received multiset, as performed by the reservoir in Stage 2).

:class:`EnsembleReceivedMessages` is the batched counterpart used by the
ensemble engines: a ``(num_trials, num_nodes, num_opinions)`` tensor covering
``R`` independent trials, with the same sampling operations vectorized over
the whole batch (the Stage-2 reservoir sub-sample becomes a batched
multivariate-hypergeometric draw built from ``k - 1`` vectorized
hypergeometric calls instead of a per-node Python loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.multiset import majority_from_counts
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)

__all__ = ["ReceivedMessages", "EnsembleReceivedMessages"]


def _uniform_choice_core(counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one received opinion per node, 0 for empty rows.

    ``counts`` has shape ``(..., num_opinions)`` and ``uniforms`` the matching
    leading shape; the same kernel serves the single-trial and batched paths.
    """
    cumulative = np.cumsum(counts, axis=-1).astype(float)
    totals = counts.sum(axis=-1)
    thresholds = uniforms * totals
    picks = (thresholds[..., np.newaxis] >= cumulative).sum(axis=-1) + 1
    return np.where(totals > 0, picks, 0).astype(np.int64)


def _subsample_core(
    counts: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
    method: str,
) -> np.ndarray:
    """Uniform sub-sample of size ``sample_size`` per row of ``counts``.

    ``counts`` has shape ``(..., num_opinions)``; rows with at most
    ``sample_size`` messages are returned untouched.  The
    ``without_replacement`` draw realizes the multivariate hypergeometric
    distribution per row through ``k - 1`` *vectorized* conditional
    hypergeometric draws over all rows at once.
    """
    num_opinions = counts.shape[-1]
    flat = counts.reshape(-1, num_opinions)
    totals = flat.sum(axis=1)
    sampled = flat.copy()
    rows = np.nonzero(totals > sample_size)[0]
    if rows.size:
        if method == "without_replacement":
            subset = flat[rows]
            remaining = totals[rows].copy()
            to_draw = np.full(rows.size, sample_size, dtype=np.int64)
            drawn = np.empty_like(subset)
            for opinion in range(num_opinions - 1):
                good = subset[:, opinion]
                bad = remaining - good
                taken = rng.hypergeometric(good, bad, to_draw)
                drawn[:, opinion] = taken
                to_draw -= taken
                remaining = bad
            drawn[:, num_opinions - 1] = to_draw
            sampled[rows] = drawn
        else:
            probabilities = flat[rows] / totals[rows, np.newaxis].astype(float)
            sampled[rows] = rng.multinomial(sample_size, probabilities)
    return sampled.reshape(counts.shape)


def _majority_core(
    counts: np.ndarray,
    eligible: np.ndarray,
    rng: Optional[np.random.Generator],
    tie_keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-wise ``maj()`` with uniform tie-break, 0 for ineligible rows.

    The tie-break keys are drawn from ``rng`` unless the caller supplies
    ``tie_keys`` (the batched per-trial-stream path draws one key block per
    trial and passes them in so the mode computation stays vectorized).
    Integer counts plus keys in ``[0, 1)`` order primarily by count and
    uniformly among tied maxima, so one fused argmax picks the same winner
    the masked-keys formulation would for the same keys.
    """
    row_max = counts.max(axis=-1)
    if tie_keys is None:
        tie_keys = rng.random(counts.shape)
    winners = (counts + tie_keys).argmax(axis=-1) + 1
    return np.where(
        eligible & (row_max > 0), winners, 0
    ).astype(np.int64)


@dataclass
class ReceivedMessages:
    """The multiset of opinions each node received during a phase.

    Attributes
    ----------
    counts:
        Integer matrix ``(num_nodes, num_opinions)``; entry ``(u, i)`` is the
        number of copies of opinion ``i + 1`` node ``u`` received.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        # Raw-dtype view for validation only; the stored array is pinned to
        # int64 by the astype below.
        counts = np.asarray(self.counts)  # reprolint: disable=int64-dtype-pin
        if counts.ndim != 2:
            raise ValueError(
                f"counts must be a 2-D matrix, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("received counts must be non-negative")
        self.counts = counts.astype(np.int64, copy=False)

    # ------------------------------------------------------------------ #
    # Shape / totals
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes (rows)."""
        return self.counts.shape[0]

    @property
    def num_opinions(self) -> int:
        """Number of opinions (columns)."""
        return self.counts.shape[1]

    def totals(self) -> np.ndarray:
        """Total number of messages received per node."""
        return self.counts.sum(axis=1)

    def total_messages(self) -> int:
        """Total number of messages delivered in the phase."""
        return int(self.counts.sum())

    def opinion_totals(self) -> np.ndarray:
        """Total number of delivered copies of each opinion (length ``k``)."""
        return self.counts.sum(axis=0)

    def received_any(self) -> np.ndarray:
        """Boolean mask of nodes that received at least one message."""
        return self.totals() > 0

    def merge(self, other: "ReceivedMessages") -> "ReceivedMessages":
        """Combine with another phase's deliveries (element-wise sum)."""
        if self.counts.shape != other.counts.shape:
            raise ValueError(
                "cannot merge ReceivedMessages with different shapes: "
                f"{self.counts.shape} vs {other.counts.shape}"
            )
        return ReceivedMessages(self.counts + other.counts)

    # ------------------------------------------------------------------ #
    # Sampling / voting
    # ------------------------------------------------------------------ #

    def uniform_opinion_choice(self, random_state: RandomState = None) -> np.ndarray:
        """One opinion per node, chosen u.a.r. from its received multiset.

        This is the Stage-1 adoption rule ("chosen u.a.r. counting
        multiplicities").  Nodes that received nothing get 0.
        """
        rng = as_generator(random_state)
        totals = self.totals()
        choices = np.zeros(self.num_nodes, dtype=np.int64)
        receivers = np.nonzero(totals)[0]
        if receivers.size == 0:
            return choices
        # Inverse-CDF draw per receiving node over its own counts.
        cumulative = np.cumsum(self.counts[receivers], axis=1).astype(float)
        thresholds = rng.random(receivers.size) * totals[receivers]
        picks = (thresholds[:, np.newaxis] >= cumulative).sum(axis=1) + 1
        choices[receivers] = picks
        return choices

    def subsample(
        self,
        sample_size: int,
        random_state: RandomState = None,
        *,
        method: str = "without_replacement",
    ) -> np.ndarray:
        """A uniform random sample of size ``sample_size`` per node.

        Implements the Stage-2 "random uniform sample S(u) of size L from
        R_j(u)" (equivalently, the contents of a size-``L`` reservoir after
        reservoir sampling the received stream).  Nodes that received fewer
        than ``sample_size`` messages keep their full multiset — the protocol
        only lets such nodes vote when ``|R_j(u)| >= L``, which callers check
        via :meth:`totals`.

        Parameters
        ----------
        sample_size:
            The target sample size ``L``.
        method:
            ``"without_replacement"`` (exact multiset sub-sampling, via a
            multivariate hypergeometric draw per node) or
            ``"with_replacement"`` (multinomial over the empirical received
            distribution; cheaper and asymptotically equivalent, exposed for
            the sampling ablation E13).

        Returns
        -------
        numpy.ndarray
            Integer matrix ``(num_nodes, num_opinions)`` of sampled counts.
        """
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "method must be 'without_replacement' or 'with_replacement', "
                f"got {method!r}"
            )
        rng = as_generator(random_state)
        totals = self.totals()
        sampled = self.counts.copy()
        needs_sampling = np.nonzero(totals > sample_size)[0]
        if needs_sampling.size == 0:
            return sampled
        if method == "without_replacement":
            for node in needs_sampling:
                sampled[node] = rng.multivariate_hypergeometric(
                    self.counts[node], sample_size
                )
        else:
            probabilities = (
                self.counts[needs_sampling]
                / totals[needs_sampling, np.newaxis].astype(float)
            )
            for offset, node in enumerate(needs_sampling):
                sampled[node] = rng.multinomial(sample_size, probabilities[offset])
        return sampled

    def majority_votes(
        self,
        random_state: RandomState = None,
        *,
        sample_size: Optional[int] = None,
        sampling_method: str = "without_replacement",
    ) -> np.ndarray:
        """Per-node ``maj()`` of the (optionally sub-sampled) received multiset.

        Nodes that received no messages vote 0 (no opinion); when
        ``sample_size`` is given, nodes that received fewer than
        ``sample_size`` messages also vote 0, matching the Stage-2 rule that
        only nodes with ``|R_j(u)| >= L`` update.
        """
        rng = as_generator(random_state)
        if sample_size is None:
            counts = self.counts
            eligible = self.received_any()
        else:
            counts = self.subsample(
                sample_size, rng, method=sampling_method
            )
            eligible = self.totals() >= sample_size
        votes = majority_from_counts(counts, rng)
        return np.where(eligible, votes, 0).astype(np.int64)


@dataclass
class EnsembleReceivedMessages:
    """The received multisets of ``R`` independent trials, as one tensor.

    Attributes
    ----------
    counts:
        Integer tensor ``(num_trials, num_nodes, num_opinions)``; entry
        ``(r, u, i)`` is the number of copies of opinion ``i + 1`` node ``u``
        of trial ``r`` received during the phase.

    Every sampling method draws trial ``r``'s randomness from its own
    generator only (see :func:`~repro.utils.rng.as_trial_generators`: a
    sequence gives one source per trial, a single source is spawned into
    one child per trial), so a batched call is reproducible trial by trial.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        # Raw-dtype view for validation only; the stored array is pinned to
        # int64 by the astype below.
        counts = np.asarray(self.counts)  # reprolint: disable=int64-dtype-pin
        if counts.ndim != 3:
            raise ValueError(
                f"ensemble counts must be a 3-D tensor, got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("received counts must be non-negative")
        self.counts = counts.astype(np.int64, copy=False)

    # ------------------------------------------------------------------ #
    # Shape / totals
    # ------------------------------------------------------------------ #

    @property
    def num_trials(self) -> int:
        """Number of trials ``R``."""
        return self.counts.shape[0]

    @property
    def num_nodes(self) -> int:
        """Number of nodes per trial."""
        return self.counts.shape[1]

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.counts.shape[2]

    def totals(self) -> np.ndarray:
        """Messages received per node, shape ``(R, n)``."""
        return self.counts.sum(axis=2)

    def total_messages(self) -> np.ndarray:
        """Messages delivered per trial, shape ``(R,)``."""
        return self.counts.sum(axis=(1, 2))

    def trial(self, index: int) -> ReceivedMessages:
        """Trial ``index`` as a standalone :class:`ReceivedMessages`."""
        return ReceivedMessages(self.counts[index].copy())

    # ------------------------------------------------------------------ #
    # Sampling / voting
    # ------------------------------------------------------------------ #

    def uniform_opinion_choice(
        self, random_state: EnsembleRandomState = None
    ) -> np.ndarray:
        """One opinion per node per trial, u.a.r. from its received multiset.

        The Stage-1 adoption rule batched over the ensemble; returns an
        ``(R, n)`` integer matrix with 0 for nodes that received nothing.
        """
        generators = as_trial_generators(random_state, self.num_trials)
        return np.stack(
            [
                _uniform_choice_core(
                    self.counts[trial], generator.random(self.num_nodes)
                )
                for trial, generator in enumerate(generators)
            ]
        )

    def subsample(
        self,
        sample_size: int,
        random_state: EnsembleRandomState = None,
        *,
        method: str = "without_replacement",
    ) -> np.ndarray:
        """A uniform random sample of size ``sample_size`` per node per trial.

        The batched version of :meth:`ReceivedMessages.subsample`; the
        without-replacement draw is a batched multivariate hypergeometric
        realized with ``k - 1`` vectorized hypergeometric calls (no per-node
        Python loop).  Returns an ``(R, n, k)`` integer tensor.
        """
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "method must be 'without_replacement' or 'with_replacement', "
                f"got {method!r}"
            )
        generators = as_trial_generators(random_state, self.num_trials)
        return np.stack(
            [
                _subsample_core(self.counts[trial], sample_size, generator, method)
                for trial, generator in enumerate(generators)
            ]
        )

    def majority_votes(
        self,
        random_state: EnsembleRandomState = None,
        *,
        sample_size: Optional[int] = None,
        sampling_method: str = "without_replacement",
    ) -> np.ndarray:
        """Per-node ``maj()`` votes batched over the ensemble.

        The batched version of :meth:`ReceivedMessages.majority_votes`;
        returns an ``(R, n)`` integer matrix with 0 for nodes that do not
        update (nothing received, or fewer than ``sample_size`` messages).
        """
        generators = as_trial_generators(random_state, self.num_trials)
        if sample_size is None:
            # Fast path (the dynamics' hot loop): the per-trial streams only
            # contribute the tie-break keys, so fill one key block per trial
            # in place and run the mode computation batched.
            tie_keys = np.empty(self.counts.shape, dtype=np.float64)
            for trial, generator in enumerate(generators):
                generator.random(out=tie_keys[trial])
            return _majority_core(
                self.counts, self.totals() > 0, None, tie_keys=tie_keys
            )
        votes = []
        for trial, generator in enumerate(generators):
            counts = _subsample_core(
                self.counts[trial], sample_size, generator, sampling_method
            )
            eligible = self.counts[trial].sum(axis=-1) >= sample_size
            votes.append(_majority_core(counts, eligible, generator))
        return np.stack(votes)
