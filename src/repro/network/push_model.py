"""Process O: the noisy uniform push model.

This is the communication model of Section 2.1.  In every synchronous round
each opinionated node pushes its current opinion to a node chosen uniformly
at random (sender and receiver stay mutually anonymous); the opinion is
perturbed in transit by the noise matrix, independently for every message.
All simultaneously delivered messages are received (the Appendix A choice).

The engine exposes two granularities:

* :meth:`UniformPushModel.run_round` — one synchronous round, returning the
  per-node received-opinion counts of that round;
* :meth:`UniformPushModel.run_phase` — a block of rounds with a fixed set of
  sender opinions (the situation inside every phase of the paper's protocol,
  where nodes only change opinion at phase boundaries), returning the
  aggregated counts.

Both a vectorized implementation and a deliberately naive per-message Python
reference implementation are provided; the ablation benchmark E13 compares
them, and the test-suite checks they agree in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.balls_bins import ensemble_recolor_and_throw
from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import EnsembleRandomState, RandomState, as_generator
from repro.utils.validation import require_positive_int

__all__ = ["UniformPushModel", "PushPhaseStatistics"]


@dataclass(frozen=True)
class PushPhaseStatistics:
    """Summary statistics of a simulated push phase.

    Attributes
    ----------
    num_rounds:
        Number of synchronous rounds in the phase.
    messages_sent:
        Total number of messages pushed during the phase
        (= ``num_rounds * number of senders``).
    messages_corrupted:
        Number of messages whose delivered opinion differs from the sent one.
    max_received_by_single_node:
        The largest number of messages any single node received (the paper's
        Appendix A remarks this is ``O(log n)`` per round w.h.p.).
    """

    num_rounds: int
    messages_sent: int
    messages_corrupted: int
    max_received_by_single_node: int


class UniformPushModel:
    """The noisy uniform push model over the complete graph on ``num_nodes``.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    noise:
        The noise matrix ``P`` applied independently to every message.
    random_state:
        Randomness used for target selection and noise.
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
        """Number of opinions ``k`` understood by the channel."""
        return self.noise.num_opinions

    # ------------------------------------------------------------------ #
    # Input validation
    # ------------------------------------------------------------------ #

    def _validate_sender_opinions(self, sender_opinions: np.ndarray) -> np.ndarray:
        opinions = np.asarray(sender_opinions, dtype=np.int64).ravel()
        if opinions.size and (opinions.min() < 1 or opinions.max() > self.num_opinions):
            raise ValueError(
                "sender opinions must be in "
                f"[1, {self.num_opinions}]; undecided (0) nodes do not push"
            )
        return opinions

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #

    def run_round(self, sender_opinions: np.ndarray) -> ReceivedMessages:
        """Simulate a single synchronous round.

        Parameters
        ----------
        sender_opinions:
            The opinions (``1..k``) of the nodes that push this round, one
            entry per pushing node.  Undecided nodes must be filtered out by
            the caller (they do not push).

        Returns
        -------
        ReceivedMessages
            The per-node counts of delivered (noisy) opinions for this round.
        """
        return self.run_phase(sender_opinions, num_rounds=1)

    def run_phase(
        self,
        sender_opinions: np.ndarray,
        num_rounds: int,
        *,
        collect_statistics: bool = False,
    ) -> ReceivedMessages:
        """Simulate ``num_rounds`` rounds with a fixed sender-opinion multiset.

        Each pushing node sends one message per round; over the phase it
        therefore sends ``num_rounds`` copies of its opinion, each to an
        independently chosen uniform target and each independently corrupted
        by the noise matrix.

        Returns the aggregated :class:`ReceivedMessages`; when
        ``collect_statistics`` is true the result carries a
        ``statistics`` attribute with a :class:`PushPhaseStatistics`.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = self._validate_sender_opinions(sender_opinions)
        counts = np.zeros((self.num_nodes, self.num_opinions), dtype=np.int64)
        corrupted = 0
        max_single_round = 0
        for _ in range(num_rounds):
            if opinions.size == 0:
                continue
            delivered = self.noise.apply_to_opinions(opinions, self._rng)
            corrupted += int(np.count_nonzero(delivered != opinions))
            targets = self._rng.integers(0, self.num_nodes, size=opinions.size)
            round_counts = np.zeros_like(counts)
            np.add.at(round_counts, (targets, delivered - 1), 1)
            per_node = round_counts.sum(axis=1)
            if per_node.size:
                max_single_round = max(max_single_round, int(per_node.max()))
            counts += round_counts
        result = ReceivedMessages(counts)
        if collect_statistics:
            result.statistics = PushPhaseStatistics(
                num_rounds=num_rounds,
                messages_sent=int(opinions.size) * num_rounds,
                messages_corrupted=corrupted,
                max_received_by_single_node=max_single_round,
            )
        return result

    def run_phase_from_senders(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Alias of :meth:`run_phase` matching the other engines' interface.

        All three processes (O, B, P) expose ``run_phase_from_senders`` so the
        protocol executors can be parameterized by the delivery process.
        """
        return self.run_phase(sender_opinions, num_rounds)

    def run_ensemble_phase_from_senders(
        self,
        sender_histograms: np.ndarray,
        num_rounds: int,
        random_state: EnsembleRandomState,
    ) -> EnsembleReceivedMessages:
        """Batched phase delivery for ``R`` independent trials.

        Row ``r`` of ``sender_histograms`` (shape ``(R, k)``) is trial
        ``r``'s sender-opinion histogram; every sender pushes once per round.
        Within a phase the sender multiset is fixed, so the phase's messages
        are i.i.d. — by Claim 1 the aggregated end-of-phase counts of
        process O are distributed *exactly* as the balls-into-bins process on
        ``num_rounds`` copies of the histogram.  The batched engine therefore
        samples that reformulation directly, replacing the per-round
        simulation loop with a handful of vectorized draws per phase.  Trial
        ``r`` draws from its own stream of ``random_state``.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        histograms = np.asarray(sender_histograms, dtype=np.int64)
        return ensemble_recolor_and_throw(
            self.num_nodes, self.noise, histograms * num_rounds, random_state
        )

    def run_phase_naive(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Per-message reference implementation of :meth:`run_phase`.

        Iterates over individual messages in pure Python.  Statistically
        equivalent to the vectorized engine (the tests check this); it exists
        as the baseline of the vectorization ablation and as an executable
        specification of the model.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = self._validate_sender_opinions(sender_opinions)
        counts = np.zeros((self.num_nodes, self.num_opinions), dtype=np.int64)
        matrix = self.noise.matrix
        for _ in range(num_rounds):
            for opinion in opinions:
                delivered = int(
                    self._rng.choice(self.num_opinions, p=matrix[opinion - 1]) + 1
                )
                target = int(self._rng.integers(0, self.num_nodes))
                counts[target, delivered - 1] += 1
        return ReceivedMessages(counts)

    def expected_received_distribution(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> np.ndarray:
        """Expected per-node, per-opinion received counts (no sampling).

        Useful for tests: the expectation of entry ``(u, i)`` of the phase
        count matrix is ``num_rounds * h_i / n`` where ``h`` is the noisy
        image of the sender-opinion histogram (Eq. (2) of the paper).
        """
        opinions = self._validate_sender_opinions(sender_opinions)
        histogram = np.bincount(
            opinions, minlength=self.num_opinions + 1
        )[1:].astype(float)
        noisy = self.noise.propagate(histogram)
        return np.tile(noisy * num_rounds / self.num_nodes, (self.num_nodes, 1))
