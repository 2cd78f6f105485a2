"""Stage 1 of the protocol: spreading the rumor while preserving the bias.

Rule of Stage 1 (paper, Section 3.1.1).  During each phase:

* every node that already supports an opinion at the beginning of the phase
  pushes that opinion in every round of the phase (opinionated nodes never
  change opinion during Stage 1);
* every undecided node that receives at least one opinion during the phase
  adopts, at the end of the phase, one of the received opinions chosen
  uniformly at random counting multiplicities (realizable with a capacity-1
  reservoir, so no unbounded memory is needed);
* undecided nodes never push.

Lemma 4 states that after Stage 1 all nodes are opinionated w.h.p. and the
opinion distribution is ``Omega(sqrt(log n / n))``-biased toward the correct
opinion; experiments E3 and E4 verify this and the per-phase growth claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.schedule import Stage1Schedule
from repro.core.state import EnsembleState, PopulationState
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)

__all__ = [
    "Stage1Executor",
    "Stage1PhaseRecord",
    "EnsembleStage1Executor",
    "EnsembleStage1PhaseRecord",
]


@dataclass(frozen=True)
class Stage1PhaseRecord:
    """State snapshot at the end of one Stage-1 phase.

    Attributes
    ----------
    phase_index:
        Phase number (0-based; the paper's phase ``j``).
    num_rounds:
        Number of rounds the phase lasted.
    opinionated_before, opinionated_after:
        Number of opinionated nodes at the beginning and end of the phase.
    newly_opinionated:
        Number of undecided nodes that adopted an opinion at the end of the
        phase (the paper's ``|S_j|``).
    opinion_distribution:
        ``c(tau_j)`` — per-opinion fraction of all nodes after the phase.
    bias:
        Bias of ``c(tau_j)`` toward the tracked opinion ``m`` (``None`` when
        no opinion is tracked).
    messages_sent:
        Total messages pushed during the phase.
    """

    phase_index: int
    num_rounds: int
    opinionated_before: int
    opinionated_after: int
    newly_opinionated: int
    opinion_distribution: np.ndarray
    bias: Optional[float]
    messages_sent: int


class Stage1Executor:
    """Run Stage 1 of the protocol on a delivery engine.

    Parameters
    ----------
    engine:
        A delivery engine — normally the :class:`~repro.network.push_model.
        UniformPushModel` (process O), but the balls-into-bins and Poissonized
        engines (the E8 experiment runs the protocol under all three) and the
        topology-aware :class:`~repro.network.topology.GraphPushModel` are
        accepted too.  The engine must expose either
        ``run_phase_from_senders`` or ``run_phase_from_population``.
    schedule:
        The Stage-1 phase schedule.
    random_state:
        Randomness used for the end-of-phase uniform opinion adoption.
    """

    def __init__(
        self,
        engine,
        schedule: Stage1Schedule,
        random_state: RandomState = None,
    ) -> None:
        from repro.network.delivery import supports_population_delivery

        if not (
            hasattr(engine, "run_phase_from_senders")
            or supports_population_delivery(engine)
        ):
            raise TypeError(
                "engine must expose run_phase_from_senders or "
                "run_phase_from_population"
            )
        self.engine = engine
        self.schedule = schedule
        self._rng = as_generator(random_state)

    def run(
        self,
        state: PopulationState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[PopulationState, List[Stage1PhaseRecord]]:
        """Execute every Stage-1 phase, returning the final state and history.

        Parameters
        ----------
        state:
            Initial population state; it is not modified (a copy is evolved).
        track_opinion:
            The opinion ``m`` whose bias is recorded per phase (defaults to
            the initial plurality opinion, if any).

        Returns
        -------
        (final_state, records):
            The population state after the last phase and one
            :class:`Stage1PhaseRecord` per phase.
        """
        current = state.copy()
        if track_opinion is None:
            plurality = current.plurality_opinion()
            track_opinion = plurality if plurality > 0 else None
        records: List[Stage1PhaseRecord] = []
        for phase_index, num_rounds in enumerate(self.schedule.phase_lengths):
            record = self.run_phase(
                current, phase_index, num_rounds, track_opinion=track_opinion
            )
            records.append(record)
        return current, records

    def run_phase(
        self,
        state: PopulationState,
        phase_index: int,
        num_rounds: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> Stage1PhaseRecord:
        """Execute a single Stage-1 phase, mutating ``state`` in place."""
        from repro.network.delivery import deliver_phase

        opinionated_before = state.opinionated_count()
        if opinionated_before > 0:
            received = deliver_phase(self.engine, state.opinions, num_rounds)
            # Only undecided nodes act on what they received; each adopts one
            # received opinion u.a.r. (counting multiplicities) at phase end.
            adopted = received.uniform_opinion_choice(self._rng)
            undecided = ~state.opinionated_mask()
            adopters = undecided & (adopted > 0)
            state.opinions[adopters] = adopted[adopters]
            newly_opinionated = int(np.count_nonzero(adopters))
            messages_sent = received.total_messages()
        else:
            newly_opinionated = 0
            messages_sent = 0
        bias = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        return Stage1PhaseRecord(
            phase_index=phase_index,
            num_rounds=num_rounds,
            opinionated_before=opinionated_before,
            opinionated_after=state.opinionated_count(),
            newly_opinionated=newly_opinionated,
            opinion_distribution=state.opinion_distribution(),
            bias=bias,
            messages_sent=messages_sent,
        )


@dataclass(frozen=True)
class EnsembleStage1PhaseRecord:
    """Per-trial state snapshots at the end of one batched Stage-1 phase.

    The fields mirror :class:`Stage1PhaseRecord` with a leading trial axis:
    scalars become ``(R,)`` arrays and the distribution becomes ``(R, k)``.
    """

    phase_index: int
    num_rounds: int
    opinionated_before: np.ndarray
    opinionated_after: np.ndarray
    newly_opinionated: np.ndarray
    opinion_distributions: np.ndarray
    bias: Optional[np.ndarray]
    messages_sent: np.ndarray


class EnsembleStage1Executor:
    """Run Stage 1 for ``R`` independent trials with batched phase delivery.

    The executor mirrors :class:`Stage1Executor` but evolves an
    :class:`~repro.core.state.EnsembleState`: every phase delivers all
    trials' messages through the engine's batched entry point and applies
    the end-of-phase adoption rule to the whole ``(R, n)`` batch at once.
    Trials never interact — a trial's evolution depends only on its own row
    and its own generator, which is what the batched-equals-sequential
    equivalence tests rely on.

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_ensemble_phase_from_senders``
        (processes O, B and P all do).
    schedule:
        The Stage-1 phase schedule, shared by every trial.
    random_state:
        One source per trial, or a single source spawned into one child per
        trial when :meth:`run` sees the batch; trial ``r`` consumes draws
        from its own generator only.
    """

    def __init__(
        self,
        engine,
        schedule: Stage1Schedule,
        random_state: EnsembleRandomState = None,
    ) -> None:
        from repro.network.delivery import supports_ensemble_delivery

        if not supports_ensemble_delivery(engine):
            raise TypeError(
                "engine must expose run_ensemble_phase_from_senders"
            )
        self.engine = engine
        self.schedule = schedule
        self._random_state = random_state

    def run(
        self,
        state: EnsembleState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[EnsembleState, List[EnsembleStage1PhaseRecord]]:
        """Execute every Stage-1 phase on a copy of ``state``.

        ``track_opinion`` defaults to the plurality opinion of the pooled
        initial counts (summed over trials), matching the single-trial
        executor on homogeneous ensembles.
        """
        current = state.copy()
        if track_opinion is None:
            pooled = current.pooled_plurality_opinion()
            track_opinion = pooled if pooled > 0 else None
        generators = as_trial_generators(self._random_state, current.num_trials)
        records: List[EnsembleStage1PhaseRecord] = []
        for phase_index, num_rounds in enumerate(self.schedule.phase_lengths):
            record = self.run_phase(
                current,
                phase_index,
                num_rounds,
                generators,
                track_opinion=track_opinion,
            )
            records.append(record)
        return current, records

    def run_phase(
        self,
        state: EnsembleState,
        phase_index: int,
        num_rounds: int,
        generators: List[np.random.Generator],
        *,
        track_opinion: Optional[int] = None,
    ) -> EnsembleStage1PhaseRecord:
        """Execute a single batched Stage-1 phase, mutating ``state`` in place.

        ``generators`` holds one stream per trial of ``state``.
        """
        from repro.network.delivery import deliver_ensemble_phase

        opinionated_before = state.opinionated_counts()
        received = deliver_ensemble_phase(
            self.engine, state.opinions, num_rounds, generators
        )
        # Only undecided nodes act on what they received; each adopts one
        # received opinion u.a.r. (counting multiplicities) at phase end.
        adopted = received.uniform_opinion_choice(generators)
        undecided = ~state.opinionated_mask()
        adopters = undecided & (adopted > 0)
        state.opinions[adopters] = adopted[adopters]
        bias = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        return EnsembleStage1PhaseRecord(
            phase_index=phase_index,
            num_rounds=num_rounds,
            opinionated_before=opinionated_before,
            opinionated_after=state.opinionated_counts(),
            newly_opinionated=np.count_nonzero(adopters, axis=1).astype(np.int64),
            opinion_distributions=state.opinion_distributions(),
            bias=bias,
            messages_sent=received.total_messages(),
        )
