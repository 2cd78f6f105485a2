"""The per-node delivery engine that weaves faulty emissions into phases.

The honest-reduction architecture: protocol state machines only ever hold
the ``n_h = n - m`` honest nodes, but every phase's balls — honest *and*
faulty — are thrown into the full ``n`` bins, and only the honest bins'
mailboxes are handed back.  The faulty sub-population is a frozen emission
law, not evolving state, so the reduction costs a simple slice.

:class:`FaultedDeliveryEngine` backs the sequential and batched tiers via
the standard ``run_phase_from_senders`` / ``run_ensemble_phase_from_senders``
delivery protocol; a sequential phase is a batch-size-1 batched phase on
the engine's own generator.  The counts tier takes the same
:class:`~repro.faults.injection.FaultedPhaseSampler` as a per-point hook of
its merged batch (``CountsProtocolTask.fault_sampler``).
"""

from __future__ import annotations

import numpy as np

from repro.faults.injection import FaultedPhaseSampler
from repro.network.balls_bins import ensemble_recolor_and_throw
from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)
from repro.utils.validation import require_positive_int

__all__ = ["FaultedDeliveryEngine"]


class FaultedDeliveryEngine:
    """Per-node phase delivery over ``n`` bins, exposing only honest ones.

    ``num_nodes`` (the attribute the protocols validate against) is the
    *honest* population; ``total_nodes`` is the full bin count including
    faulty nodes, whose emissions come from ``sampler``.
    """

    def __init__(
        self,
        num_honest: int,
        total_nodes: int,
        noise: NoiseMatrix,
        sampler: FaultedPhaseSampler,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_honest, "num_honest")
        self.total_nodes = require_positive_int(total_nodes, "total_nodes")
        if self.num_nodes > self.total_nodes:
            raise ValueError(
                f"num_honest={num_honest} exceeds total_nodes={total_nodes}"
            )
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        if not isinstance(sampler, FaultedPhaseSampler):
            raise TypeError(
                f"sampler must be a FaultedPhaseSampler, got {type(sampler).__name__}"
            )
        self.noise = noise
        self.sampler = sampler
        self._rng = as_generator(random_state)

    @property
    def num_opinions(self) -> int:
        return self.noise.num_opinions

    def run_phase_from_senders(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Sequential-tier phase: honest sender opinions in, honest mail out."""
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = np.asarray(sender_opinions, dtype=np.int64).ravel()
        if opinions.size and (
            opinions.min() < 1 or opinions.max() > self.num_opinions
        ):
            raise ValueError(
                f"sender opinions must be in [1, {self.num_opinions}]"
            )
        histogram = np.bincount(opinions, minlength=self.num_opinions + 1)[1:]
        received = self.run_ensemble_phase_from_senders(
            histogram[np.newaxis], num_rounds, [self._rng]
        )
        return ReceivedMessages(received.counts[0])

    def run_ensemble_phase_from_senders(
        self,
        sender_histograms: np.ndarray,
        num_rounds: int,
        random_state: EnsembleRandomState,
    ) -> EnsembleReceivedMessages:
        """Batched-tier phase for ``R`` trials, ``(R, k)`` honest histograms.

        Trial ``r``'s faulty balls and throw both draw from its own stream
        of ``random_state``.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        histograms = np.asarray(sender_histograms, dtype=np.int64)
        generators = as_trial_generators(random_state, histograms.shape[0])
        totals = histograms * np.int64(num_rounds) + self.sampler.phase_ball_deltas(
            histograms, num_rounds, generators
        )
        received = ensemble_recolor_and_throw(
            self.total_nodes, self.noise, totals, generators
        )
        return EnsembleReceivedMessages(
            np.ascontiguousarray(received.counts[:, : self.num_nodes, :])
        )
