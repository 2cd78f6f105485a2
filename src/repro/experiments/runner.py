"""Shared helpers for running repeated trials and parameter sweeps.

The experiments follow a common pattern: for every point of a small parameter
grid, run several independent trials (each with its own derived RNG stream),
and summarize the per-trial outputs.  These helpers centralize the trial
bookkeeping so that the experiment modules stay declarative.

Repeated trials have three interchangeable execution engines:

* ``"batched"`` (default) — all trials run as one vectorized batch over an
  ``(R, n)`` opinion matrix (:class:`~repro.core.protocol.EnsembleProtocol`
  for the two-stage protocol,
  :class:`~repro.dynamics.base.EnsembleOpinionDynamics` for the baseline
  dynamics), which is many times faster than looping;
* ``"sequential"`` — the reference implementation: a Python loop of
  single-trial runs, kept for cross-checking the batched path;
* ``"counts"`` — the sufficient-statistics engine: trials evolve only their
  ``(R, k)`` opinion-count matrices
  (:class:`~repro.core.protocol.CountsProtocol`,
  :class:`~repro.dynamics.base.EnsembleCountsDynamics`), ``O(k^2)`` per
  round per trial *independent of* ``n`` — the tier that scales repeated
  trials to millions of nodes.

``"auto"`` picks between ``"batched"`` and ``"counts"`` by population size
(:func:`resolve_trial_engine`): above :data:`DEFAULT_COUNTS_THRESHOLD`
nodes (or an explicit ``counts_threshold``) the counts engine wins.

:func:`protocol_trial_outcomes` and :func:`dynamics_trial_outcomes` hide the
choice behind one call returning a flat list of per-trial outcomes.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.protocol import (
    CountsProtocol,
    CountsProtocolTask,
    EnsembleProtocol,
    TwoStageProtocol,
    run_heterogeneous_counts_protocol,
)
from repro.core.schedule import ProtocolSchedule, Stage1Schedule, Stage2Schedule
from repro.core.stage1 import EnsembleStage1Executor, Stage1Executor
from repro.core.stage2 import EnsembleStage2Executor, Stage2Executor
from repro.core.state import CountsState, EnsembleCountsState, EnsembleState, PopulationState
from repro.network.push_model import UniformPushModel
from repro.noise.matrix import NoiseMatrix
from repro.sim.engines import build_dynamics
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_trial_generators,
    resolve_trial_randomness,
    spawn_generators,
)

__all__ = [
    "repeat_trials",
    "sweep_product",
    "summarize",
    "TrialOutcome",
    "protocol_trial_outcomes",
    "DynamicsTrialOutcome",
    "dynamics_trial_outcomes",
    "Stage1TrajectoryResult",
    "stage1_trial_trajectories",
    "Stage2TrajectoryResult",
    "stage2_trial_trajectories",
    "TRIAL_ENGINES",
    "TRIAL_ENGINE_CHOICES",
    "DEFAULT_COUNTS_THRESHOLD",
    "resolve_trial_engine",
    "set_default_counts_threshold",
]

T = TypeVar("T")

#: Concrete execution engines accepted by the trial-outcome helpers.
TRIAL_ENGINES = ("batched", "sequential", "counts")

#: Everything a caller may pass as ``trial_engine``: the per-trial engines,
#: ``"analytic"`` (the distribution-level tier — valid for routing, but
#: rejected by the per-trial helpers, which have no trials to report), and
#: ``"auto"`` (resolves to a concrete engine by population size).
TRIAL_ENGINE_CHOICES = TRIAL_ENGINES + ("analytic", "auto")

#: Population size at which ``trial_engine="auto"`` switches from the
#: batched ``(R, n)`` engine to the counts engine.  At ``n = 10^5`` the
#: counts engine is already >= 20x faster (see
#: ``benchmarks/bench_counts_engine.py``); below ~10^4 either engine
#: finishes in milliseconds and the batched one stays the default because
#: it also supports the ablation knobs.
DEFAULT_COUNTS_THRESHOLD = 50_000

_active_counts_threshold = DEFAULT_COUNTS_THRESHOLD


def set_default_counts_threshold(counts_threshold: Optional[int]) -> int:
    """Override the process-wide ``"auto"`` switch-over population size.

    ``None`` restores :data:`DEFAULT_COUNTS_THRESHOLD`.  Returns the now
    active value.  Used by the CLI's ``--counts-threshold`` so experiment
    configs (which carry only a ``trial_engine`` name) pick it up too.
    """
    global _active_counts_threshold
    if counts_threshold is None:
        _active_counts_threshold = DEFAULT_COUNTS_THRESHOLD
    else:
        if counts_threshold < 1:
            raise ValueError(
                f"counts_threshold must be >= 1, got {counts_threshold}"
            )
        _active_counts_threshold = int(counts_threshold)
    return _active_counts_threshold


def resolve_trial_engine(
    trial_engine: str,
    num_nodes: int,
    counts_threshold: Optional[int] = None,
    *,
    allow_analytic: bool = False,
) -> str:
    """The concrete engine for ``trial_engine`` at population size ``n``.

    Concrete engine names pass through unchanged (after validation);
    ``"auto"`` resolves to ``"counts"`` when ``num_nodes`` is at least
    ``counts_threshold`` (default: the active threshold, normally
    :data:`DEFAULT_COUNTS_THRESHOLD`) and to ``"batched"`` otherwise.

    The boundary is inclusive on the counts side: at *exactly*
    ``num_nodes == counts_threshold`` the counts engine wins (``>=``, not
    ``>``).  The threshold is the smallest population the n-independent
    engine should serve, so the ``repro.sim`` facade, the CLI and the
    experiment configs all see ``auto(n=threshold) == "counts"`` — pinned
    by the test-suite so the semantics cannot drift silently.

    ``allow_analytic=True`` short-circuits ``"auto"`` to ``"analytic"``:
    the caller asserts the scenario is *exactly tractable* (the count
    simplex fits the analytic state budget, plus any closed-form vote
    tables the workload needs), in which case the exact answer beats any
    amount of sampling.  Only the ``repro.sim`` facade sets it — the
    per-trial helpers in this module cannot consume the analytic tier.
    """
    if trial_engine not in TRIAL_ENGINE_CHOICES:
        raise ValueError(
            f"trial_engine must be one of {TRIAL_ENGINE_CHOICES}, "
            f"got {trial_engine!r}"
        )
    if trial_engine != "auto":
        return trial_engine
    if allow_analytic:
        return "analytic"
    if counts_threshold is None:
        counts_threshold = _active_counts_threshold
    elif counts_threshold < 1:
        raise ValueError(
            f"counts_threshold must be >= 1, got {counts_threshold}"
        )
    return "counts" if num_nodes >= counts_threshold else "batched"


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
            "the per-trial helpers sample independent trials, which the "
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


def repeat_trials(
    trial: Callable[[np.random.Generator], T],
    num_trials: int,
    random_state: RandomState = None,
) -> List[T]:
    """Run ``trial`` ``num_trials`` times with independent generators.

    Each invocation receives its own :class:`numpy.random.Generator` derived
    deterministically from ``random_state``, so the whole batch is
    reproducible while the trials stay statistically independent.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    generators = spawn_generators(num_trials, random_state)
    return [trial(generator) for generator in generators]


@dataclass(frozen=True)
class TrialOutcome:
    """The per-trial quantities the repeated-trial experiments consume.

    Attributes
    ----------
    success:
        ``True`` iff the trial ended in consensus on the target opinion.
    total_rounds:
        Communication rounds the trial executed.
    bias_after_stage1:
        Bias toward the target opinion at the end of Stage 1 (``None`` when
        Stage 1 recorded no phases).
    correct_fraction:
        Fraction of nodes supporting the target opinion at the end.
    final_bias:
        Bias of the final distribution toward the target opinion.
    stage1_rounds:
        Communication rounds spent in Stage 1.
    opinionated_fraction_after_stage1:
        Fraction of opinionated nodes at the end of Stage 1 (``None`` when
        Stage 1 recorded no phases) — the Lemma 6 quantity.
    """

    success: bool
    total_rounds: int
    bias_after_stage1: Optional[float]
    correct_fraction: float
    final_bias: float = 0.0
    stage1_rounds: int = 0
    opinionated_fraction_after_stage1: Optional[float] = None


def protocol_trial_outcomes(
    initial_state: PopulationState,
    noise: NoiseMatrix,
    epsilon: float,
    num_trials: int,
    random_state: RandomState = None,
    *,
    target_opinion: Optional[int] = None,
    process: str = "push",
    round_scale: float = 1.0,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
) -> List[TrialOutcome]:
    """Run ``num_trials`` independent protocol trials from ``initial_state``.

    Every trial starts from the same initial population and runs the full
    two-stage protocol; the routing between the batched ensemble engine,
    the counts (sufficient-statistics) engine and the sequential reference
    loop is controlled by ``trial_engine`` (one of
    :data:`TRIAL_ENGINE_CHOICES`; ``"auto"`` switches to ``"counts"`` at
    ``counts_threshold`` nodes).  All engines derive per-trial randomness
    from ``random_state``, so a fixed seed gives a reproducible batch
    either way (though not the same draws across engines).  The counts
    engine ignores ``process``: its delivery is always the counts-native
    Claim-1/Poissonized model.
    """
    num_nodes = initial_state.num_nodes
    trial_engine = _resolve_engine_for_state(
        trial_engine, initial_state, counts_threshold
    )
    if trial_engine in ("batched", "counts"):
        if trial_engine == "batched":
            protocol = EnsembleProtocol(
                num_nodes,
                noise,
                epsilon=epsilon,
                process=process,
                random_state=random_state,
                round_scale=round_scale,
            )
        else:
            protocol = CountsProtocol(
                num_nodes,
                noise,
                epsilon=epsilon,
                random_state=random_state,
                round_scale=round_scale,
            )
        result = protocol.run(
            initial_state, num_trials, target_opinion=target_opinion
        )
        stage1_biases = result.biases_after_stage1
        stage1_opinionated = result.opinionated_after_stage1
        correct_fractions = result.correct_fractions()
        final_biases = result.final_biases
        return [
            TrialOutcome(
                success=bool(result.successes[trial]),
                total_rounds=result.total_rounds,
                bias_after_stage1=(
                    float(stage1_biases[trial])
                    if stage1_biases is not None
                    else None
                ),
                correct_fraction=float(correct_fractions[trial]),
                final_bias=float(final_biases[trial]),
                stage1_rounds=result.stage1_rounds,
                opinionated_fraction_after_stage1=(
                    float(stage1_opinionated[trial]) / num_nodes
                    if stage1_opinionated is not None
                    else None
                ),
            )
            for trial in range(result.num_trials)
        ]

    def trial(rng: np.random.Generator) -> TrialOutcome:
        result = TwoStageProtocol(
            num_nodes,
            noise,
            epsilon=epsilon,
            process=process,
            random_state=rng,
            round_scale=round_scale,
        ).run(initial_state, target_opinion=target_opinion)
        opinionated = result.opinionated_after_stage1
        return TrialOutcome(
            success=result.success,
            total_rounds=result.total_rounds,
            bias_after_stage1=result.bias_after_stage1,
            correct_fraction=result.correct_fraction(),
            final_bias=result.final_bias,
            stage1_rounds=result.stage1_rounds,
            opinionated_fraction_after_stage1=(
                float(opinionated) / num_nodes
                if opinionated is not None
                else None
            ),
        )

    return repeat_trials(trial, num_trials, random_state)


@dataclass(frozen=True)
class DynamicsTrialOutcome:
    """The per-trial quantities of a repeated baseline-dynamics experiment.

    Attributes
    ----------
    success:
        ``True`` iff the trial reached consensus on the target opinion.
    converged:
        ``True`` iff the trial reached consensus on *some* opinion.
    rounds_executed:
        Synchronous rounds the trial executed before stopping.
    consensus_opinion:
        The agreed opinion when ``converged`` (0 otherwise).
    final_bias:
        Bias of the final distribution toward the target opinion.
    """

    success: bool
    converged: bool
    rounds_executed: int
    consensus_opinion: int
    final_bias: float


def dynamics_trial_outcomes(
    initial_state: Union[PopulationState, EnsembleState],
    noise: NoiseMatrix,
    rule: str,
    max_rounds: int,
    num_trials: int,
    random_state: EnsembleRandomState = None,
    *,
    sample_size: Optional[int] = None,
    target_opinion: Optional[int] = None,
    stop_at_consensus: bool = True,
    trial_engine: str = "batched",
    counts_threshold: Optional[int] = None,
    engine_cache: Optional[Dict[Any, Any]] = None,
) -> List[DynamicsTrialOutcome]:
    """Run ``num_trials`` independent baseline-dynamics trials.

    The dynamics counterpart of :func:`protocol_trial_outcomes`: ``rule``
    names one of :data:`~repro.dynamics.DYNAMICS_RULES` and ``trial_engine``
    (one of :data:`TRIAL_ENGINE_CHOICES`) routes the batch through the
    vectorized :class:`~repro.dynamics.base.EnsembleOpinionDynamics` engine
    (default), the ``O(k)``-per-trial counts engine, or the sequential
    reference loop of :meth:`~repro.dynamics.base.OpinionDynamics.run`
    calls.  All engines derive the same per-trial child streams from
    ``random_state``; the batched and counts engines are reproducible trial
    by trial (a batch is bitwise identical to batch-size-1 runs of the same
    engine), while agreement across engines is distributional.

    ``initial_state`` may be one :class:`PopulationState` (every trial
    starts from it) or an :class:`EnsembleState` with per-trial rows
    (``num_trials`` must then match); the counts engine additionally
    accepts the counts-native :class:`CountsState` /
    :class:`EnsembleCountsState` (which the per-node engines cannot
    consume).

    ``engine_cache`` is deprecated: it was the sweep fast path (one engine
    instance per distinct ``(engine, rule, num_nodes, sample_size, noise)``
    combination, reused across the cells of a parameter sweep), superseded
    by the batched sweep layer — build a
    :class:`~repro.sim.ScenarioGrid` and call
    :func:`~repro.sim.simulate_sweep`, which fuses the counts-tier cells
    into one heterogeneous batch instead of merely reusing engine objects.
    Passing a cache still works (same behavior, same results) but emits a
    :class:`DeprecationWarning`.
    """
    if engine_cache is not None:
        warnings.warn(
            "dynamics_trial_outcomes(engine_cache=...) is deprecated; "
            "sweep over a repro.sim.ScenarioGrid with simulate_sweep() "
            "instead, which batches the grid's counts-tier cells",
            DeprecationWarning,
            stacklevel=2,
        )
    if isinstance(
        initial_state, (EnsembleState, EnsembleCountsState)
    ) and num_trials != initial_state.num_trials:
        raise ValueError(
            f"num_trials = {num_trials} disagrees with the ensemble's "
            f"{initial_state.num_trials} trials"
        )
    num_nodes = initial_state.num_nodes
    trial_engine = _resolve_engine_for_state(
        trial_engine, initial_state, counts_threshold
    )
    if target_opinion is None:
        target_opinion = (
            initial_state.pooled_plurality_opinion()
            if isinstance(initial_state, (EnsembleState, EnsembleCountsState))
            else initial_state.plurality_opinion()
        )
    target_opinion = int(target_opinion)

    if trial_engine in ("batched", "counts"):
        # Content-based noise fingerprint: id() could be recycled across
        # short-lived matrices and hand back an engine with the wrong
        # channel.
        cache_key = (
            trial_engine, rule, num_nodes, sample_size,
            noise.matrix.tobytes(),
        )
        dynamic = None
        if engine_cache is not None:
            dynamic = engine_cache.get(cache_key)
        if dynamic is None:
            dynamic = build_dynamics(
                trial_engine, rule, num_nodes, noise, random_state,
                sample_size=sample_size,
            )
            if engine_cache is not None:
                engine_cache[cache_key] = dynamic
        else:
            dynamic.reset_randomness(random_state)
        result = dynamic.run(
            initial_state,
            max_rounds,
            (
                num_trials
                if isinstance(initial_state, (PopulationState, CountsState))
                else None
            ),
            target_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
            record_history=False,
        )
        final_biases = result.final_biases
        return [
            DynamicsTrialOutcome(
                success=bool(result.successes[trial]),
                converged=bool(result.converged[trial]),
                rounds_executed=int(result.rounds_executed[trial]),
                consensus_opinion=int(result.consensus_opinions[trial]),
                final_bias=float(final_biases[trial]),
            )
            for trial in range(result.num_trials)
        ]

    generators = as_trial_generators(random_state, num_trials)
    outcomes: List[DynamicsTrialOutcome] = []
    for trial, generator in enumerate(generators):
        if isinstance(initial_state, EnsembleState):
            trial_state = initial_state.trial_state(trial)
        else:
            trial_state = initial_state
        dynamic = build_dynamics(
            "sequential", rule, num_nodes, noise, generator,
            sample_size=sample_size,
        )
        result = dynamic.run(
            trial_state,
            max_rounds,
            target_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
            record_history=False,
        )
        outcomes.append(
            DynamicsTrialOutcome(
                success=result.success,
                converged=result.converged,
                rounds_executed=result.rounds_executed,
                consensus_opinion=result.consensus_opinion,
                final_bias=(
                    result.final_state.bias_toward(target_opinion)
                    if target_opinion > 0
                    else 0.0
                ),
            )
        )
    return outcomes


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
                UniformPushModel(num_nodes, noise, None),
                schedule,
                resolve_trial_randomness(random_state, num_trials, "per_trial"),
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
            resolve_trial_randomness(random_state, num_trials, "per_trial"),
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
