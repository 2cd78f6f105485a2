"""Analytic (sampling-free) engine for the two-stage protocol.

The counts protocol already reduces a phase to closed-form per-node laws
(Claim-1 recoloring plus the Poissonized Definition-4 delivery); this
module evolves the *distribution* over opinion-count states through those
laws instead of sampling them:

* Stage 1: an undecided node stays undecided with probability
  ``e^{-Lambda}`` and otherwise adopts color ``j`` with probability
  ``h_j / B`` (``B`` the phase's message total — preserved exactly by
  recoloring — and ``Lambda = B / n``); opinionated nodes never change.
* Stage 2: a node re-votes with probability ``P(Poisson(Lambda) >= L)``
  and a re-voter's vote follows the closed-form ``maj()`` law of ``L``
  i.i.d. draws from the noisy histogram's color law.

One approximation separates this tier from the counts engine: the noisy
histogram is replaced by its *expectation* ``h P``.  Stage-1 adoption
probabilities are linear in the histogram, so their per-node marginals
are unchanged; the Stage-2 ``maj()`` law is nonlinear in the recolored
shares, and all nodes of a sampled trial share one recolor realization
(a cross-node correlation the product-form evolution drops).  Both
effects vanish as the phase message totals grow; the agreement suite
therefore asserts the protocol tier against a documented, looser TVD
threshold than the dynamics tier (which is exact outright).

The tier serves only scenarios within the state budget whose every
Stage-2 sample size has a closed-form ``maj()`` table
(:func:`exact_protocol_schedule`, the one check); past either budget it
refuses, and the counts tier samples the process instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analytic.simplex import (
    DEFAULT_STATE_BUDGET,
    enumerate_states,
    next_state_distribution,
    state_indices,
    state_space_size,
    states_within_budget,
)
from repro.core.schedule import ProtocolSchedule
from repro.dynamics.base import _bias_from_counts
from repro.network.balls_bins import poisson_tail_probability
from repro.network.pull_model import majority_vote_law, vote_table_is_tractable
from repro.noise.matrix import NoiseMatrix
from repro.utils.validation import require_positive_int

__all__ = [
    "exact_protocol_schedule",
    "exact_protocol_is_tractable",
    "AnalyticProtocolResult",
    "AnalyticProtocol",
]


def _expected_noisy_shares(
    histogram: np.ndarray, noise: NoiseMatrix
) -> Tuple[float, np.ndarray]:
    """``(B, E[h~] / B)`` of a phase histogram under exact recoloring.

    Recoloring preserves row totals, so ``B`` (and hence ``Lambda``) is
    deterministic; only the color split is replaced by its expectation.
    """
    histogram = np.asarray(histogram, dtype=float)
    total = float(histogram.sum())
    if total <= 0.0:
        return 0.0, np.zeros(histogram.shape[0])
    return total, (histogram @ noise.matrix) / total


def _stage1_group_laws(
    counts: np.ndarray, num_rounds: int, num_nodes: int, noise: NoiseMatrix
) -> np.ndarray:
    """Per-group outcome laws of one Stage-1 phase from count vector."""
    width = counts.shape[0] + 1
    laws = np.zeros((width, width))
    total, shares = _expected_noisy_shares(counts * num_rounds, noise)
    if total <= 0.0:
        laws[0, 0] = 1.0
    else:
        stay = math.exp(-total / num_nodes)
        laws[0, 0] = stay
        laws[0, 1:] = (1.0 - stay) * shares
    for group in range(1, width):
        laws[group, group] = 1.0  # opinionated nodes never change in Stage 1
    return laws


def _stage2_group_laws(
    counts: np.ndarray,
    num_rounds: int,
    sample_size: int,
    num_nodes: int,
    noise: NoiseMatrix,
) -> np.ndarray:
    """Per-group outcome laws of one Stage-2 phase from count vector."""
    width = counts.shape[0] + 1
    num_opinions = width - 1
    laws = np.zeros((width, width))
    total, shares = _expected_noisy_shares(counts * num_rounds, noise)
    if total <= 0.0:
        # No messages: nobody is eligible to re-vote.
        laws[np.arange(width), np.arange(width)] = 1.0
        return laws
    update = float(
        poisson_tail_probability(
            int(sample_size), np.asarray([total / num_nodes])
        )[0]
    )
    if not vote_table_is_tractable(int(sample_size), num_opinions):
        raise ValueError(
            f"the exact Stage-2 vote law needs the closed-form maj() "
            f"table, which is intractable for sample_size={int(sample_size)}, "
            f"k={num_opinions}"
        )
    observation = np.concatenate([[0.0], shares])
    vote_pmf = np.clip(
        majority_vote_law(observation[np.newaxis, :], int(sample_size)),
        0.0,
        1.0,
    )[0, 1:]
    # Mirror sample_vote_counts: renormalize away the rounding dust (the
    # no-vote mass is exactly zero — every sampled message has a color).
    row_sum = vote_pmf.sum()
    vote_pmf = (
        vote_pmf / row_sum
        if row_sum > 0
        else np.full(num_opinions, 1.0 / num_opinions)
    )
    laws[0, 0] = 1.0 - update
    laws[0, 1:] = update * vote_pmf
    for group in range(1, width):
        laws[group, 1:] = update * vote_pmf
        laws[group, group] += 1.0 - update
    return laws


def exact_protocol_schedule(
    num_nodes: int,
    num_opinions: int,
    epsilon: Optional[float] = None,
    *,
    schedule: Optional[ProtocolSchedule] = None,
    initial_opinionated: int = 1,
    round_scale: float = 1.0,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ProtocolSchedule:
    """The schedule :class:`AnalyticProtocol` runs, checked to be exact.

    The analytic protocol's one tractability check: the count simplex
    must fit the dense-kernel budget, and every Stage-2 sample size of the
    schedule (``schedule``, or the one built from ``epsilon``) needs a
    tractable closed-form ``maj()`` table (the final phase's
    ``L' ~ log n / eps^2`` is the binding constraint).  Raises
    :class:`ValueError` naming the budget the run is past.
    """
    if not states_within_budget(num_nodes, num_opinions, state_budget):
        raise ValueError(
            f"exact protocol needs C(n + k, k) <= {state_budget} states, "
            f"got {state_space_size(num_nodes, num_opinions)}; "
            "use engine='counts'"
        )
    if schedule is None:
        schedule = ProtocolSchedule.for_population(
            num_nodes,
            float(epsilon),
            initial_opinionated=max(1, int(initial_opinionated)),
            round_scale=round_scale,
        )
    for size in schedule.stage2.sample_sizes:
        if not vote_table_is_tractable(int(size), num_opinions):
            raise ValueError(
                f"the analytic engine needs the closed-form maj() table "
                f"for every Stage-2 phase, which is intractable for "
                f"sample_size={int(size)}, k={num_opinions}"
            )
    return schedule


def exact_protocol_is_tractable(
    num_nodes: int,
    num_opinions: int,
    epsilon: float,
    *,
    initial_opinionated: int = 1,
    round_scale: float = 1.0,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Whether :class:`AnalyticProtocol` can run this scenario exactly:
    whether :func:`exact_protocol_schedule` accepts it."""
    try:
        exact_protocol_schedule(
            num_nodes,
            num_opinions,
            epsilon,
            initial_opinionated=initial_opinionated,
            round_scale=round_scale,
            state_budget=state_budget,
        )
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class AnalyticProtocolResult:
    """Outcome of an analytic protocol run (no per-trial arrays).

    ``phase_biases`` holds the expected bias toward the target after each
    phase, Stage-1 phases first — entry ``stage1_phases - 1`` is the
    expected bias after Stage 1.
    """

    num_nodes: int
    num_opinions: int
    target_opinion: int
    method: str
    success_probability: float
    convergence_probability: float
    expected_bias_after_stage1: float
    expected_final_bias: float
    expected_final_counts: np.ndarray
    phase_biases: np.ndarray
    stage1_phases: int
    stage1_rounds: int
    total_rounds: int
    state_space_size: int


class AnalyticProtocol:
    """Evolve the exact count-state distribution through both stages.

    The analytic mirror of :class:`~repro.core.protocol.CountsProtocol`
    under the expected-recoloring approximation discussed in the module
    docstring.  Construction mirrors the counts protocol; tractability is
    checked per run by :func:`exact_protocol_schedule` (the schedule
    depends on the initial state).
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        epsilon: Optional[float] = None,
        schedule: Optional[ProtocolSchedule] = None,
        round_scale: float = 1.0,
        state_budget: int = DEFAULT_STATE_BUDGET,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.noise = noise
        self.epsilon = epsilon
        self.round_scale = round_scale
        self.state_budget = state_budget
        self._schedule = schedule

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def build_schedule(self, initial_opinionated: int = 1) -> ProtocolSchedule:
        """The schedule used by :meth:`run` (built lazily when not supplied)."""
        if self._schedule is not None:
            return self._schedule
        return ProtocolSchedule.for_population(
            self.num_nodes,
            float(self.epsilon),
            initial_opinionated=max(1, initial_opinionated),
            round_scale=self.round_scale,
        )

    def initial_distribution(self, counts: np.ndarray) -> np.ndarray:
        """A point mass at ``counts`` over the state enumeration."""
        index = int(
            state_indices(
                np.asarray(counts, dtype=np.int64),
                self.num_nodes,
                self.num_opinions,
            )
        )
        if index < 0:
            raise ValueError(
                # Error display only: show the offending value in its raw
                # dtype rather than coercing it.
                f"counts {np.asarray(counts).tolist()} are not a valid "  # reprolint: disable=int64-dtype-pin
                f"state for n={self.num_nodes}"
            )
        distribution = np.zeros(
            state_space_size(self.num_nodes, self.num_opinions)
        )
        distribution[index] = 1.0
        return distribution

    def _evolve(self, distribution: np.ndarray, laws_of_state) -> np.ndarray:
        states = enumerate_states(self.num_nodes, self.num_opinions)
        evolved = np.zeros_like(distribution)
        for index in np.nonzero(distribution)[0]:
            counts = states[index]
            group_sizes = np.concatenate(
                [[self.num_nodes - int(counts.sum())], counts]
            )
            evolved += distribution[index] * next_state_distribution(
                group_sizes,
                laws_of_state(counts),
                self.num_nodes,
                self.num_opinions,
            )
        return evolved

    def evolve_stage1_phase(
        self, distribution: np.ndarray, num_rounds: int
    ) -> np.ndarray:
        """One Stage-1 phase applied to a state distribution."""
        return self._evolve(
            distribution,
            lambda counts: _stage1_group_laws(
                counts, int(num_rounds), self.num_nodes, self.noise
            ),
        )

    def evolve_stage2_phase(
        self, distribution: np.ndarray, num_rounds: int, sample_size: int
    ) -> np.ndarray:
        """One Stage-2 phase applied to a state distribution."""
        return self._evolve(
            distribution,
            lambda counts: _stage2_group_laws(
                counts,
                int(num_rounds),
                int(sample_size),
                self.num_nodes,
                self.noise,
            ),
        )

    def run(
        self,
        initial_counts: np.ndarray,
        *,
        target_opinion: Optional[int] = None,
    ) -> AnalyticProtocolResult:
        """Run both stages from a single initial count vector."""
        counts = np.asarray(initial_counts, dtype=np.int64).ravel()
        if counts.shape[0] != self.num_opinions:
            raise ValueError(
                f"initial_counts must have length {self.num_opinions}, "
                f"got {counts.shape[0]}"
            )
        if target_opinion is None:
            target_opinion = int(counts.argmax()) + 1 if counts.max() > 0 else 0
        target_opinion = int(target_opinion)
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial state "
                "has no opinionated node"
            )
        schedule = exact_protocol_schedule(
            self.num_nodes,
            self.num_opinions,
            self.epsilon,
            schedule=self._schedule,
            initial_opinionated=int(counts.sum()),
            round_scale=self.round_scale,
            state_budget=self.state_budget,
        )
        states = enumerate_states(self.num_nodes, self.num_opinions)
        bias = _bias_from_counts(states, target_opinion, self.num_nodes)
        distribution = self.initial_distribution(counts)
        phase_biases: List[float] = []
        for num_rounds in schedule.stage1.phase_lengths:
            distribution = self.evolve_stage1_phase(distribution, num_rounds)
            phase_biases.append(float(bias @ distribution))
        bias_after_stage1 = phase_biases[-1]
        for num_rounds, sample_size in zip(
            schedule.stage2.phase_lengths, schedule.stage2.sample_sizes
        ):
            distribution = self.evolve_stage2_phase(
                distribution, num_rounds, sample_size
            )
            phase_biases.append(float(bias @ distribution))

        consensus = states.max(axis=1) == self.num_nodes
        success_state = np.zeros(self.num_opinions, dtype=np.int64)
        success_state[target_opinion - 1] = self.num_nodes
        success_index = int(
            state_indices(success_state, self.num_nodes, self.num_opinions)
        )
        return AnalyticProtocolResult(
            num_nodes=self.num_nodes,
            num_opinions=self.num_opinions,
            target_opinion=target_opinion,
            method="exact",
            success_probability=float(distribution[success_index]),
            convergence_probability=float(distribution[consensus].sum()),
            expected_bias_after_stage1=bias_after_stage1,
            expected_final_bias=float(bias @ distribution),
            expected_final_counts=distribution @ states,
            phase_biases=np.asarray(phase_biases, dtype=float),
            stage1_phases=schedule.stage1.num_phases,
            stage1_rounds=schedule.stage1.total_rounds,
            total_rounds=schedule.total_rounds,
            state_space_size=states.shape[0],
        )
