"""Phase-level emission sampling for faulty sub-populations.

The engines never materialize faulty nodes.  By Claim 1 a phase is fully
described by its message multiset, so each adversary family reduces to a
per-phase *ball delta*: extra (or, for crash after the deadline, zero)
messages appended to the honest senders' histogram before the noisy
recolor-and-throw step.  The honest state machine is untouched; faulty
opinions are frozen at their initial values (crash/omission nodes never
re-adopt — they are adversarial, not merely slow):

* ``crash``    — ``faulty_histogram * rounds_active`` balls, deterministic,
  where ``rounds_active`` counts the phase rounds before ``crash_round``.
* ``omission`` — ``Binomial(faulty_histogram * L, 1 - drop_rate)`` per color.
* ``liar``     — ``Multinomial(m * L, uniform over k)``: all ``m`` liars
  emit every round, even opinion-less ones (rumor workload).
* ``adaptive`` — ``m * L`` balls of the honest senders' runner-up color
  (second-largest support, ties to the lowest opinion index).

Faulty balls are added *before* the noise recolor, so channel noise acts on
adversarial messages exactly as on honest ones.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.faults.model import FaultModel
from repro.utils.rng import (
    EnsembleRandomState,
    as_trial_generators,
    binomial_rows,
    multinomial_rows,
)

__all__ = [
    "FaultedPhaseSampler",
    "largest_remainder_split",
    "runner_up_opinions",
]


def largest_remainder_split(counts: np.ndarray, quota: int) -> np.ndarray:
    """Deterministically take ``quota`` items proportionally from ``counts``.

    Returns an integer vector ``taken`` with ``taken <= counts`` elementwise
    and ``taken.sum() == quota``, allocated by the largest-remainder method
    (ties to the lowest index).  Used to decide which initial opinions the
    faulty sub-population freezes.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if quota < 0 or quota > total:
        raise ValueError(
            f"quota must be in [0, {total}], got {quota}"
        )
    if quota == 0:
        return np.zeros_like(counts)
    exact = counts * (quota / total)
    taken = np.floor(exact).astype(np.int64)
    remainder = quota - int(taken.sum())
    if remainder:
        # Largest fractional part first, ties to the lowest index; skip
        # entries already at their cap.  One pass over a stable ordering
        # may not place everything once caps bind, so loop until done.
        order = np.argsort(-(exact - taken), kind="stable")
        while remainder:
            placed = False
            for index in order:
                if taken[index] < counts[index]:
                    taken[index] += 1
                    remainder -= 1
                    placed = True
                    if not remainder:
                        break
            if not placed:  # pragma: no cover - guarded by the quota check
                raise RuntimeError("largest_remainder_split failed to place quota")
    return taken


def runner_up_opinions(honest_histograms: np.ndarray) -> np.ndarray:
    """Per-trial runner-up opinion index (0-based) of each histogram row.

    The adaptive adversary targets the second-largest honest support; ties
    break toward the lowest opinion index.  With a single opinion (k = 1)
    the only opinion is returned.
    """
    histograms = np.asarray(honest_histograms, dtype=np.int64)
    if histograms.shape[1] == 1:
        return np.zeros(histograms.shape[0], dtype=np.int64)
    order = np.argsort(-histograms, axis=1, kind="stable")
    return order[:, 1].astype(np.int64)


class FaultedPhaseSampler:
    """Samples each phase's faulty ball delta, tracking the global round.

    One sampler instance spans a whole protocol run (both stages): the
    internal round counter advances by ``num_rounds`` per call, which is
    what gives ``crash_round`` its meaning.  Batched runs share a single
    sampler across all trials (the phase schedule is common); sequential
    runs build one per trial.
    """

    def __init__(
        self,
        model: FaultModel,
        num_faulty: int,
        faulty_histogram: np.ndarray,
        num_opinions: int,
    ) -> None:
        if not isinstance(model, FaultModel):
            raise TypeError(
                f"model must be a FaultModel, got {type(model).__name__}"
            )
        self.model = model
        self.num_faulty = int(num_faulty)
        self.num_opinions = int(num_opinions)
        histogram = np.asarray(faulty_histogram, dtype=np.int64)
        if histogram.shape != (self.num_opinions,):
            raise ValueError(
                f"faulty_histogram must have shape ({self.num_opinions},), "
                f"got {histogram.shape}"
            )
        if int(histogram.sum()) > self.num_faulty:
            raise ValueError(
                "faulty_histogram sums past num_faulty: "
                f"{int(histogram.sum())} > {self.num_faulty}"
            )
        self.faulty_histogram = histogram
        self.rounds_done = 0

    def phase_ball_deltas(
        self,
        honest_histograms: np.ndarray,
        num_rounds: int,
        random_state: EnsembleRandomState = None,
    ) -> np.ndarray:
        """Faulty balls to append for one phase, shape ``(R, k)``.

        ``honest_histograms`` is the ``(R, k)`` honest *sender* histogram
        (one ball per sender per round before scaling by ``num_rounds``);
        only the adaptive family reads it.  Trial ``r`` draws from the
        ``r``-th stream of ``as_trial_generators(random_state, R)`` (rows
        may share one generator), rows in order.  Advances the round
        counter.
        """
        honest = np.asarray(honest_histograms, dtype=np.int64)
        if honest.ndim != 2 or honest.shape[1] != self.num_opinions:
            raise ValueError(
                f"honest_histograms must have shape (R, {self.num_opinions}), "
                f"got {honest.shape}"
            )
        num_trials = honest.shape[0]
        num_rounds = int(num_rounds)
        deltas = np.zeros((num_trials, self.num_opinions), dtype=np.int64)
        kind = self.model.kind
        if kind == "crash":
            active = int(
                np.clip(self.model.crash_round - self.rounds_done, 0, num_rounds)
            )
            if active:
                deltas[:] = self.faulty_histogram * np.int64(active)
        elif kind == "omission":
            sent = self.faulty_histogram * np.int64(num_rounds)
            keep = 1.0 - self.model.drop_rate
            if sent.any():
                deltas[:] = binomial_rows(
                    as_trial_generators(random_state, num_trials),
                    np.broadcast_to(sent, deltas.shape),
                    np.full(num_trials, keep),
                )
        elif kind == "liar":
            balls = self.num_faulty * num_rounds
            if balls:
                uniform = np.full(self.num_opinions, 1.0 / self.num_opinions)
                deltas[:] = multinomial_rows(
                    as_trial_generators(random_state, num_trials),
                    np.full(num_trials, balls),
                    np.broadcast_to(uniform, deltas.shape),
                )
        elif kind == "adaptive":
            balls = self.num_faulty * num_rounds
            if balls:
                targets = runner_up_opinions(honest)
                deltas[np.arange(num_trials), targets] = balls
        else:  # pragma: no cover - FaultModel.validate guards this
            raise ValueError(f"unknown fault kind {kind!r}")
        self.rounds_done += num_rounds
        return deltas


def split_faulty_population(
    counts: np.ndarray,
    num_nodes: int,
    num_faulty: int,
    protected_opinion: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split an initial counts vector into honest and frozen-faulty parts.

    ``counts`` is the opinionated histogram (length ``k``); undecided mass
    is ``num_nodes - counts.sum()``.  The ``num_faulty`` nodes are drawn
    proportionally (largest remainder) from the full occupancy vector
    including the undecided pool.  ``protected_opinion`` (1-based) shields
    one node of that opinion from the split — the rumor source must stay
    honest.  Returns ``(honest_counts, faulty_histogram)``; the honest
    undecided pool is implied by ``num_nodes - num_faulty``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    undecided = int(num_nodes - counts.sum())
    if undecided < 0:
        raise ValueError("counts sum past num_nodes")
    pool = np.concatenate([[undecided], counts])
    if protected_opinion is not None:
        if counts[protected_opinion - 1] < 1:
            raise ValueError(
                f"no node holds protected opinion {protected_opinion}"
            )
        pool = pool.copy()
        pool[protected_opinion] -= 1
    taken = largest_remainder_split(pool, num_faulty)
    if protected_opinion is not None:
        pool[protected_opinion] += 1
    faulty_histogram = taken[1:]
    honest_counts = counts - faulty_histogram
    return honest_counts, faulty_histogram
