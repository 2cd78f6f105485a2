"""Stage 2 of the protocol: amplifying the bias via sample majorities.

Rule of Stage 2 (paper, Section 3.1.2).  During each phase of length ``2L``:

* every opinionated node pushes its current opinion in every round;
* every node maintains a uniform random sample ``S(u)`` of size ``L`` of the
  messages it receives during the phase (a size-``L`` reservoir);
* at the end of the phase, every node that received at least ``L`` messages
  switches its opinion to ``maj(S(u))`` — the most frequent opinion in the
  sample, ties broken uniformly at random.

Proposition 1 shows each such phase multiplies the bias toward the plurality
opinion by a constant factor > 1 (w.h.p.), so after ``T' + 1 = O(log n)``
phases every node supports the plurality opinion (Lemma 12).  Experiments E5
and E6 verify the per-phase amplification and the full trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.schedule import Stage2Schedule
from repro.core.state import EnsembleState, PopulationState
from repro.network.delivery import (
    deliver_ensemble_phase,
    deliver_phase,
    supports_ensemble_delivery,
    supports_population_delivery,
)
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
)

__all__ = [
    "Stage2Executor",
    "Stage2PhaseRecord",
    "EnsembleStage2Executor",
    "EnsembleStage2PhaseRecord",
]


@dataclass(frozen=True)
class Stage2PhaseRecord:
    """State snapshot at the end of one Stage-2 phase.

    Attributes
    ----------
    phase_index:
        Phase number (0-based).
    num_rounds:
        Number of rounds (``2L``).
    sample_size:
        The sample size ``L`` used by the majority rule this phase.
    updated_nodes:
        Number of nodes that received at least ``L`` messages and therefore
        re-voted at the end of the phase.
    opinion_distribution:
        ``c(tau_j)`` after the phase.
    bias_before, bias_after:
        Bias toward the tracked opinion before and after the phase (``None``
        when no opinion is tracked).
    messages_sent:
        Total messages pushed during the phase.
    """

    phase_index: int
    num_rounds: int
    sample_size: int
    updated_nodes: int
    opinion_distribution: np.ndarray
    bias_before: Optional[float]
    bias_after: Optional[float]
    messages_sent: int


class Stage2Executor:
    """Run Stage 2 of the protocol on a delivery engine.

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_phase_from_senders`` (anonymous,
        complete-graph processes O/B/P) or ``run_phase_from_population``
        (topology-aware engines).
    schedule:
        The Stage-2 phase schedule (phase lengths and sample sizes).
    random_state:
        Randomness for sampling and majority tie-breaks.
    sampling_method:
        ``"without_replacement"`` (faithful reservoir semantics, default) or
        ``"with_replacement"`` — exposed for the sampling ablation E13.
    use_full_multiset:
        When ``True``, nodes vote on their *entire* received multiset instead
        of a size-``L`` sample (the memory-unbounded variant, the other arm of
        ablation E13).
    """

    def __init__(
        self,
        engine,
        schedule: Stage2Schedule,
        random_state: RandomState = None,
        *,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if not (
            hasattr(engine, "run_phase_from_senders")
            or supports_population_delivery(engine)
        ):
            raise TypeError(
                "engine must expose run_phase_from_senders or "
                "run_phase_from_population"
            )
        if sampling_method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "sampling_method must be 'without_replacement' or "
                f"'with_replacement', got {sampling_method!r}"
            )
        self.engine = engine
        self.schedule = schedule
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._rng = as_generator(random_state)

    def run(
        self,
        state: PopulationState,
        *,
        track_opinion: Optional[int] = None,
        stop_at_consensus: bool = False,
    ) -> Tuple[PopulationState, List[Stage2PhaseRecord]]:
        """Execute every Stage-2 phase, returning the final state and history.

        Parameters
        ----------
        state:
            Initial population state (not modified; a copy is evolved).
        track_opinion:
            The opinion whose bias is recorded (defaults to the current
            plurality opinion).
        stop_at_consensus:
            Stop early once every node supports ``track_opinion`` — useful
            for convergence-time measurements; the recorded history then
            covers only the executed phases.
        """
        current = state.copy()
        if track_opinion is None:
            plurality = current.plurality_opinion()
            track_opinion = plurality if plurality > 0 else None
        records: List[Stage2PhaseRecord] = []
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(self.schedule.phase_lengths, self.schedule.sample_sizes)
        ):
            record = self.run_phase(
                current,
                phase_index,
                num_rounds,
                sample_size,
                track_opinion=track_opinion,
            )
            records.append(record)
            if (
                stop_at_consensus
                and track_opinion is not None
                and current.has_consensus_on(track_opinion)
            ):
                break
        return current, records

    def run_phase(
        self,
        state: PopulationState,
        phase_index: int,
        num_rounds: int,
        sample_size: int,
        *,
        track_opinion: Optional[int] = None,
    ) -> Stage2PhaseRecord:
        """Execute a single Stage-2 phase, mutating ``state`` in place."""
        bias_before = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        updated_nodes = 0
        messages_sent = 0
        if state.opinionated_count() > 0:
            received = deliver_phase(self.engine, state.opinions, num_rounds)
            messages_sent = received.total_messages()
            votes = received.majority_votes(
                self._rng,
                sample_size=None if self.use_full_multiset else sample_size,
                sampling_method=self.sampling_method,
            )
            updaters = votes > 0
            state.opinions[updaters] = votes[updaters]
            updated_nodes = int(np.count_nonzero(updaters))
        bias_after = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        return Stage2PhaseRecord(
            phase_index=phase_index,
            num_rounds=num_rounds,
            sample_size=sample_size,
            updated_nodes=updated_nodes,
            opinion_distribution=state.opinion_distribution(),
            bias_before=bias_before,
            bias_after=bias_after,
            messages_sent=messages_sent,
        )


@dataclass(frozen=True)
class EnsembleStage2PhaseRecord:
    """Per-trial state snapshots at the end of one batched Stage-2 phase.

    The fields mirror :class:`Stage2PhaseRecord` with a leading trial axis;
    ``consensus_after`` additionally records which trials sit at full
    consensus on the tracked opinion after the phase (all ``False`` when no
    opinion is tracked), so callers can reconstruct per-trial
    rounds-to-consensus without freezing the batch.
    """

    phase_index: int
    num_rounds: int
    sample_size: int
    updated_nodes: np.ndarray
    opinion_distributions: np.ndarray
    bias_before: Optional[np.ndarray]
    bias_after: Optional[np.ndarray]
    messages_sent: np.ndarray
    consensus_after: np.ndarray


class EnsembleStage2Executor:
    """Run Stage 2 for ``R`` independent trials with batched phase delivery.

    Mirrors :class:`Stage2Executor` over an
    :class:`~repro.core.state.EnsembleState`: each phase delivers every
    trial's messages at once and applies the sample-majority rule to the
    whole ``(R, n)`` batch.  Unlike the sequential executor there is no
    per-trial early stopping — the batch always runs the full schedule (the
    default behaviour of the sequential executor too) and records per-phase
    consensus masks instead.

    Parameters
    ----------
    engine:
        A delivery engine exposing ``run_ensemble_phase_from_senders``.
    schedule:
        The Stage-2 phase schedule (lengths and sample sizes).
    random_state:
        One source per trial, or a single source spawned into one child per
        trial when :meth:`run` sees the batch; trial ``r`` consumes draws
        from its own generator only.
    sampling_method, use_full_multiset:
        As in :class:`Stage2Executor`.
    """

    def __init__(
        self,
        engine,
        schedule: Stage2Schedule,
        random_state: EnsembleRandomState = None,
        *,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if not supports_ensemble_delivery(engine):
            raise TypeError(
                "engine must expose run_ensemble_phase_from_senders"
            )
        if sampling_method not in {"without_replacement", "with_replacement"}:
            raise ValueError(
                "sampling_method must be 'without_replacement' or "
                f"'with_replacement', got {sampling_method!r}"
            )
        self.engine = engine
        self.schedule = schedule
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._random_state = random_state

    def run(
        self,
        state: EnsembleState,
        *,
        track_opinion: Optional[int] = None,
    ) -> Tuple[EnsembleState, List[EnsembleStage2PhaseRecord]]:
        """Execute every Stage-2 phase on a copy of ``state``."""
        current = state.copy()
        if track_opinion is None:
            pooled = current.pooled_plurality_opinion()
            track_opinion = pooled if pooled > 0 else None
        generators = as_trial_generators(self._random_state, current.num_trials)
        records: List[EnsembleStage2PhaseRecord] = []
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(self.schedule.phase_lengths, self.schedule.sample_sizes)
        ):
            record = self.run_phase(
                current,
                phase_index,
                num_rounds,
                sample_size,
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
        sample_size: int,
        generators: List[np.random.Generator],
        *,
        track_opinion: Optional[int] = None,
    ) -> EnsembleStage2PhaseRecord:
        """Execute a single batched Stage-2 phase, mutating ``state`` in place.

        ``generators`` holds one stream per trial of ``state``.
        """
        bias_before = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        received = deliver_ensemble_phase(
            self.engine, state.opinions, num_rounds, generators
        )
        votes = received.majority_votes(
            generators,
            sample_size=None if self.use_full_multiset else sample_size,
            sampling_method=self.sampling_method,
        )
        updaters = votes > 0
        state.opinions[updaters] = votes[updaters]
        bias_after = (
            state.bias_toward(track_opinion) if track_opinion is not None else None
        )
        consensus_after = (
            state.consensus_mask(track_opinion)
            if track_opinion is not None
            else np.zeros(state.num_trials, dtype=bool)
        )
        return EnsembleStage2PhaseRecord(
            phase_index=phase_index,
            num_rounds=num_rounds,
            sample_size=sample_size,
            updated_nodes=np.count_nonzero(updaters, axis=1).astype(np.int64),
            opinion_distributions=state.opinion_distributions(),
            bias_before=bias_before,
            bias_after=bias_after,
            messages_sent=received.total_messages(),
            consensus_after=consensus_after,
        )
