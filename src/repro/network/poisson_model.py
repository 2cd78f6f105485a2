"""Process P: the Poissonized delivery process (Definition 4).

Given the post-noise message histogram ``h`` of a phase (``h_i`` messages
carry opinion ``i``), process P delivers to every node an *independent*
``Poisson(h_i / n)`` number of copies of each opinion ``i``.  Unlike the real
push model, the deliveries to distinct nodes (and of distinct opinions) are
mutually independent, which is what makes Chernoff-type concentration
directly applicable; Lemma 2/3 of the paper transfer w.h.p. statements from
this process back to the real one at a multiplicative cost of
``e^k * sqrt(prod_i h_i)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)
from repro.utils.validation import require_positive_int

__all__ = ["PoissonizedProcess"]


class PoissonizedProcess:
    """The independent-Poisson delivery process of Definition 4.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    noise:
        The noise matrix; used when the caller supplies the *pre-noise*
        message histogram and wants the engine to apply the re-coloring step
        itself (mirroring process B).
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

    def _validate_histogram(self, histogram: Sequence[int]) -> np.ndarray:
        array = np.asarray(histogram, dtype=np.int64)
        if array.shape != (self.num_opinions,):
            raise ValueError(
                f"histogram must have length {self.num_opinions}, got shape {array.shape}"
            )
        if np.any(array < 0):
            raise ValueError("histogram entries must be non-negative")
        return array

    def deliver(self, noisy_histogram: Sequence[int]) -> ReceivedMessages:
        """Deliver according to process P given the post-noise histogram ``h``.

        Entry ``(u, i)`` of the result is an independent draw from
        ``Poisson(h_i / n)``.
        """
        histogram = self._validate_histogram(noisy_histogram)
        rates = histogram.astype(float) / self.num_nodes
        counts = self._rng.poisson(
            lam=rates, size=(self.num_nodes, self.num_opinions)
        )
        return ReceivedMessages(counts.astype(np.int64))

    def run_phase(self, message_histogram: Sequence[int]) -> ReceivedMessages:
        """Apply the noise to the pre-noise histogram, then deliver.

        This mirrors ``BallsIntoBinsProcess.run_phase`` so the two processes
        can be driven by identical inputs in the E8 comparison.
        """
        histogram = self._validate_histogram(message_histogram)
        noisy = self.noise.apply_to_counts(histogram, self._rng)
        return self.deliver(noisy)

    def run_phase_from_senders(
        self, sender_opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Convenience wrapper mirroring ``UniformPushModel.run_phase``."""
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

        Applies the noise to each trial's message histogram and then draws
        the independent ``Poisson(h_i / n)`` deliveries of Definition 4,
        trial ``r`` from its own stream of ``random_state``.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        histograms = np.asarray(sender_histograms, dtype=np.int64)
        if histograms.ndim != 2 or histograms.shape[1] != self.num_opinions:
            raise ValueError(
                f"sender_histograms must have shape (R, {self.num_opinions}), "
                f"got shape {histograms.shape}"
            )
        if np.any(histograms < 0):
            raise ValueError("sender_histograms entries must be non-negative")
        messages = histograms * num_rounds
        num_trials = histograms.shape[0]
        counts = np.empty(
            (num_trials, self.num_nodes, self.num_opinions), dtype=np.int64
        )
        generators = as_trial_generators(random_state, num_trials)
        for trial, generator in enumerate(generators):
            noisy = self.noise.apply_to_counts(messages[trial], generator)
            counts[trial] = generator.poisson(
                lam=noisy.astype(float) / self.num_nodes,
                size=(self.num_nodes, self.num_opinions),
            )
        return EnsembleReceivedMessages(counts)

    def expected_counts(self, noisy_histogram: Sequence[int]) -> np.ndarray:
        """The mean matrix of :meth:`deliver` (``h_i / n`` in every row)."""
        histogram = self._validate_histogram(noisy_histogram)
        rates = histogram.astype(float) / self.num_nodes
        return np.tile(rates, (self.num_nodes, 1))
