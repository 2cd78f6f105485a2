"""Per-stage trial helpers and small summaries for the experiments.

Experiments that run whole protocols or dynamics build a
:class:`~repro.sim.Scenario` and call :func:`~repro.sim.simulate`.  A
Scenario cannot describe a run of *one* stage, so the stage-level
experiments (E3, E4, E6, E13) get their per-phase measurements from
:func:`stage1_trial_trajectories` and :func:`stage2_trial_trajectories`,
which run only Stage 1 or only Stage 2 on any of the three sampling tiers:

* ``"batched"`` — all trials as one vectorized batch over an ``(R, n)``
  opinion matrix;
* ``"sequential"`` — the reference implementation: a Python loop of
  single-trial runs;
* ``"counts"`` — the sufficient-statistics tier: trials evolve only their
  ``(R, k)`` opinion-count matrices, ``O(k^2)`` per round per trial
  independent of ``n``.

``"auto"`` picks between ``"batched"`` and ``"counts"`` by population size
through :func:`repro.sim.resolve_trial_engine`, the same resolution
``simulate()`` uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.protocol import CountsProtocolTask, run_heterogeneous_counts_protocol
from repro.core.schedule import ProtocolSchedule, Stage1Schedule, Stage2Schedule
from repro.core.stage1 import EnsembleStage1Executor, Stage1Executor
from repro.core.stage2 import EnsembleStage2Executor, Stage2Executor
from repro.core.state import CountsState, EnsembleCountsState, EnsembleState, PopulationState
from repro.network.push_model import UniformPushModel
from repro.noise.matrix import NoiseMatrix
from repro.sim import resolve_trial_engine
from repro.utils.rng import EnsembleRandomState, as_trial_generators

__all__ = [
    "sweep_product",
    "summarize",
    "Stage1TrajectoryResult",
    "stage1_trial_trajectories",
    "Stage2TrajectoryResult",
    "stage2_trial_trajectories",
]


def _resolve_engine_for_state(
    trial_engine: str,
    initial_state,
    counts_threshold: Optional[int],
) -> str:
    """Engine resolution that also respects the initial-state type.

    Counts-native states carry no per-node information, so only the counts
    engine can consume them: ``"auto"`` resolves straight to ``"counts"``
    for them, and an explicit per-node engine is rejected with a clear
    error instead of a deep ``TypeError``.
    """
    if trial_engine == "analytic":
        raise ValueError(
            "the stage helpers sample independent trials, which the "
            "analytic (distribution-level) engine does not produce; run "
            "repro.sim.simulate(Scenario(..., engine='analytic')) instead"
        )
    counts_native = isinstance(
        initial_state, (CountsState, EnsembleCountsState)
    )
    if counts_native and trial_engine == "auto":
        return "counts"
    resolved = resolve_trial_engine(
        trial_engine, initial_state.num_nodes, counts_threshold
    )
    if counts_native and resolved != "counts":
        raise ValueError(
            f"trial_engine={resolved!r} needs per-node initial states; "
            "CountsState/EnsembleCountsState inputs can only run on "
            "trial_engine='counts'"
        )
    return resolved


@dataclass(frozen=True)
class Stage1TrajectoryResult:
    """Per-phase Stage-1 measurements for a batch of independent trials.

    Attributes
    ----------
    phase_lengths:
        Rounds per Stage-1 phase (shared by every trial).
    opinionated_fractions:
        ``(R, P)`` array: fraction of opinionated nodes after each phase.
    biases:
        ``(R, P)`` array: bias toward the tracked opinion after each phase.
    """

    phase_lengths: Tuple[int, ...]
    opinionated_fractions: np.ndarray
    biases: np.ndarray

    @property
    def num_trials(self) -> int:
        return self.opinionated_fractions.shape[0]

    @property
    def total_rounds(self) -> int:
        return int(sum(self.phase_lengths))


def stage1_trial_trajectories(
    initial_state: PopulationState,
    noise: NoiseMatrix,
    epsilon: float,
    num_trials: int,
    random_state: EnsembleRandomState = None,
    *,
    track_opinion: int = 1,
    schedule: Optional[Stage1Schedule] = None,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
) -> Stage1TrajectoryResult:
    """Run *only Stage 1* for ``num_trials`` trials, recording every phase.

    The engine-aware counterpart of driving
    :class:`~repro.core.stage1.Stage1Executor` in a Python loop: the batched
    engine evolves one ``(R, n)`` ensemble, the counts engine one ``(R, k)``
    count matrix, and the sequential reference loops single trials — all
    three produce the same per-phase measurement arrays (Lemma 4/6/7's
    opinionated fraction and bias, experiments E3/E4).  Per-trial randomness
    follows the shared spawned-generator discipline, so a fixed
    ``random_state`` reproduces the batch on any engine.
    """
    num_nodes = initial_state.num_nodes
    if schedule is None:
        schedule = Stage1Schedule.for_population(num_nodes, epsilon)
    trial_engine = _resolve_engine_for_state(
        trial_engine, initial_state, counts_threshold
    )
    phase_lengths = tuple(int(length) for length in schedule.phase_lengths)

    if trial_engine in ("batched", "counts"):
        if trial_engine == "batched":
            executor = EnsembleStage1Executor(
                UniformPushModel(num_nodes, noise, None), schedule, random_state
            )
            _, records = executor.run(
                EnsembleState.from_state(initial_state, num_trials),
                track_opinion=track_opinion,
            )
        else:
            records = _run_counts_schedule(
                initial_state, noise, num_trials, random_state, track_opinion,
                ProtocolSchedule(schedule, Stage2Schedule([], [], epsilon)),
            ).stage1_records
        fractions = np.stack(
            [record.opinionated_after / num_nodes for record in records],
            axis=1,
        )
        biases = np.stack([record.bias for record in records], axis=1)
        return Stage1TrajectoryResult(phase_lengths, fractions, biases)

    generators = as_trial_generators(random_state, num_trials)
    fractions = np.empty((num_trials, len(phase_lengths)), dtype=float)
    biases = np.empty((num_trials, len(phase_lengths)), dtype=float)
    for trial, generator in enumerate(generators):
        engine = UniformPushModel(num_nodes, noise, generator)
        executor = Stage1Executor(engine, schedule, generator)
        _, records = executor.run(
            initial_state, track_opinion=track_opinion
        )
        fractions[trial] = [
            record.opinionated_after / num_nodes for record in records
        ]
        biases[trial] = [record.bias for record in records]
    return Stage1TrajectoryResult(phase_lengths, fractions, biases)


def _run_counts_schedule(
    initial_state, noise, num_trials, random_state, track_opinion, schedule
):
    """One counts-tier run of ``schedule`` (one of its stages left empty)."""
    task = CountsProtocolTask(
        num_nodes=initial_state.num_nodes,
        noise=noise,
        initial_state=initial_state,
        num_trials=num_trials,
        schedule=schedule,
        target_opinion=track_opinion,
        random_state=random_state,
    )
    (result,) = run_heterogeneous_counts_protocol([task])
    return result


@dataclass(frozen=True)
class Stage2TrajectoryResult:
    """Per-phase Stage-2 measurements for a batch of independent trials.

    Attributes
    ----------
    phase_lengths, sample_sizes:
        Rounds and sample size per Stage-2 phase (shared by every trial).
    biases:
        ``(R, P)`` array: bias toward the tracked opinion after each phase.
    consensus:
        ``(R,)`` boolean array: consensus on the tracked opinion at the end.
    """

    phase_lengths: Tuple[int, ...]
    sample_sizes: Tuple[int, ...]
    biases: np.ndarray
    consensus: np.ndarray

    @property
    def num_trials(self) -> int:
        return self.biases.shape[0]

    @property
    def final_biases(self) -> np.ndarray:
        """Bias toward the tracked opinion after the last phase, per trial."""
        return self.biases[:, -1]


def stage2_trial_trajectories(
    initial_state: Union[PopulationState, EnsembleState],
    noise: NoiseMatrix,
    epsilon: float,
    num_trials: int,
    random_state: EnsembleRandomState = None,
    *,
    track_opinion: int = 1,
    schedule: Optional[Stage2Schedule] = None,
    sampling_method: str = "without_replacement",
    use_full_multiset: bool = False,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
) -> Stage2TrajectoryResult:
    """Run *only Stage 2* for ``num_trials`` trials, recording every phase.

    The engine-aware Stage-2 counterpart of :func:`stage1_trial_trajectories`
    (Lemma 12's per-phase bias amplification, experiments E6/E13).
    ``initial_state`` is either one fully opinionated population (every
    trial starts from it) or a pre-built :class:`EnsembleState` with
    per-trial rows.  The Stage-2 sampling ablations (``sampling_method``,
    ``use_full_multiset``) are served by the batched and sequential engines;
    the counts engine implements only the faithful rule and raises
    ``ValueError`` for anything else.
    """
    num_nodes = initial_state.num_nodes
    if schedule is None:
        schedule = Stage2Schedule.for_population(num_nodes, epsilon)
    if isinstance(initial_state, EnsembleState) and (
        num_trials != initial_state.num_trials
    ):
        raise ValueError(
            f"num_trials = {num_trials} disagrees with the ensemble's "
            f"{initial_state.num_trials} trials"
        )
    trial_engine = _resolve_engine_for_state(
        trial_engine, initial_state, counts_threshold
    )
    phase_lengths = tuple(int(length) for length in schedule.phase_lengths)
    sample_sizes = tuple(int(size) for size in schedule.sample_sizes)

    if trial_engine == "counts":
        if sampling_method != "without_replacement":
            raise ValueError(
                "the counts engine implements only the faithful "
                "'without_replacement' Stage-2 sampling; use the batched or "
                f"sequential engine for {sampling_method!r}"
            )
        if use_full_multiset:
            raise ValueError(
                "the counts engine implements only the size-L sample rule; "
                "use the batched or sequential engine for use_full_multiset"
            )
        result = _run_counts_schedule(
            initial_state, noise, num_trials, random_state, track_opinion,
            ProtocolSchedule(Stage1Schedule([], epsilon), schedule),
        )
        biases = np.stack(
            [record.bias_after for record in result.stage2_records], axis=1
        )
        return Stage2TrajectoryResult(
            phase_lengths, sample_sizes, biases, result.successes
        )

    if trial_engine == "batched":
        if isinstance(initial_state, PopulationState):
            ensemble = EnsembleState.from_state(initial_state, num_trials)
        else:
            ensemble = initial_state
        executor = EnsembleStage2Executor(
            UniformPushModel(num_nodes, noise, None),
            schedule,
            random_state,
            sampling_method=sampling_method,
            use_full_multiset=use_full_multiset,
        )
        final_states, records = executor.run(
            ensemble, track_opinion=track_opinion
        )
        biases = np.stack([record.bias_after for record in records], axis=1)
        consensus = final_states.consensus_mask(track_opinion)
        return Stage2TrajectoryResult(
            phase_lengths, sample_sizes, biases, consensus
        )

    generators = as_trial_generators(random_state, num_trials)
    biases = np.empty((num_trials, len(phase_lengths)), dtype=float)
    consensus = np.empty(num_trials, dtype=bool)
    for trial, generator in enumerate(generators):
        if isinstance(initial_state, EnsembleState):
            trial_state = initial_state.trial_state(trial)
        else:
            trial_state = initial_state
        engine = UniformPushModel(num_nodes, noise, generator)
        executor = Stage2Executor(
            engine,
            schedule,
            generator,
            sampling_method=sampling_method,
            use_full_multiset=use_full_multiset,
        )
        final_state, records = executor.run(
            trial_state, track_opinion=track_opinion
        )
        biases[trial] = [record.bias_after for record in records]
        consensus[trial] = final_state.has_consensus_on(track_opinion)
    return Stage2TrajectoryResult(
        phase_lengths, sample_sizes, biases, consensus
    )


def sweep_product(**parameter_values: Sequence[Any]) -> List[Dict[str, Any]]:
    """The Cartesian product of named parameter lists, as dictionaries.

    >>> sweep_product(n=[10, 20], eps=[0.1])
    [{'n': 10, 'eps': 0.1}, {'n': 20, 'eps': 0.1}]
    """
    if not parameter_values:
        return [{}]
    names = list(parameter_values)
    combinations = itertools.product(
        *(parameter_values[name] for name in names)
    )
    return [dict(zip(names, values)) for values in combinations]


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Mean / standard deviation / min / max of a batch of measurements."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("at least one value is required")
    return {
        "mean": float(array.mean()),
        "std": float(array.std(ddof=1)) if array.size > 1 else 0.0,
        "min": float(array.min()),
        "max": float(array.max()),
    }
