"""The complete two-stage protocol (Stage 1 followed by Stage 2).

:class:`TwoStageProtocol` wires together the schedule, the delivery engine
(process O by default), and the two stage executors, and reports a
:class:`ProtocolResult` containing the final state, the per-phase history of
both stages, and the headline outcome (did every node adopt the correct
opinion, and after how many rounds).

:class:`EnsembleProtocol` is the batched counterpart: it runs ``R``
independent trials of the same protocol as one vectorized computation over
an ``(R, n)`` opinion matrix, which is how repeated-trial experiments get
multi-fold speedups over a Python-level loop of :class:`TwoStageProtocol`
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.schedule import ProtocolSchedule
from repro.core.stage1 import (
    EnsembleStage1Executor,
    EnsembleStage1PhaseRecord,
    Stage1Executor,
    Stage1PhaseRecord,
)
from repro.core.stage2 import (
    EnsembleStage2Executor,
    EnsembleStage2PhaseRecord,
    Stage2Executor,
    Stage2PhaseRecord,
)
from repro.core.state import (
    CountsState,
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
    coerce_to_ensemble_counts,
)
from repro.faults.injection import FaultedPhaseSampler
from repro.network.balls_bins import HeterogeneousCountsDeliveryModel
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    RowGenerators,
    as_generator,
    as_trial_generators,
    point_generators,
)
from repro.utils.validation import ScenarioError

__all__ = [
    "TwoStageProtocol",
    "ProtocolResult",
    "EnsembleProtocol",
    "EnsembleResult",
    "CountsProtocol",
    "CountsProtocolTask",
    "run_heterogeneous_counts_protocol",
]


@dataclass
class ProtocolResult:
    """Outcome of a full protocol execution.

    Attributes
    ----------
    final_state:
        The population state after the last executed phase.
    target_opinion:
        The correct/plurality opinion ``m`` the run was tracking.
    success:
        ``True`` iff every node supports ``target_opinion`` at the end.
    total_rounds:
        Total number of communication rounds executed.
    stage1_records, stage2_records:
        Per-phase histories of the two stages.
    """

    final_state: PopulationState
    target_opinion: int
    success: bool
    total_rounds: int
    stage1_records: List[Stage1PhaseRecord] = field(default_factory=list)
    stage2_records: List[Stage2PhaseRecord] = field(default_factory=list)

    @property
    def stage1_rounds(self) -> int:
        """Rounds spent in Stage 1."""
        return int(sum(record.num_rounds for record in self.stage1_records))

    @property
    def stage2_rounds(self) -> int:
        """Rounds spent in Stage 2."""
        return int(sum(record.num_rounds for record in self.stage2_records))

    @property
    def final_bias(self) -> float:
        """Bias of the final distribution toward the target opinion."""
        return self.final_state.bias_toward(self.target_opinion)

    @property
    def bias_after_stage1(self) -> Optional[float]:
        """Bias toward the target opinion at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].bias

    @property
    def opinionated_after_stage1(self) -> Optional[int]:
        """Number of opinionated nodes at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].opinionated_after

    def bias_trajectory(self) -> np.ndarray:
        """The per-phase bias toward the target opinion over both stages."""
        values = []
        for record in self.stage1_records:
            if record.bias is not None:
                values.append(record.bias)
        for record in self.stage2_records:
            if record.bias_after is not None:
                values.append(record.bias_after)
        return np.asarray(values, dtype=float)

    def correct_fraction(self) -> float:
        """Fraction of nodes supporting the target opinion at the end."""
        return float(
            np.count_nonzero(self.final_state.opinions == self.target_opinion)
            / self.final_state.num_nodes
        )


class TwoStageProtocol:
    """The paper's protocol: Stage 1 (spread) followed by Stage 2 (amplify).

    Parameters
    ----------
    num_nodes:
        Population size ``n``.
    noise:
        The noise matrix ``P`` of the channel.
    schedule:
        The phase schedule; when omitted, a default schedule is built from
        ``num_nodes``, ``epsilon`` and the initial state at run time.
    epsilon:
        The noise parameter used to build the default schedule; mandatory
        when ``schedule`` is omitted.
    process:
        Delivery process name (``"push"``, ``"balls_bins"`` or ``"poisson"``).
    engine:
        A pre-built delivery engine to use instead of ``process`` — e.g. a
        :class:`~repro.network.topology.GraphPushModel` for non-complete
        topologies.  Must expose ``run_phase_from_senders`` or
        ``run_phase_from_population``.
    random_state:
        Randomness for the engine and both stages.
    round_scale:
        Multiplier for phase lengths of the default schedule.
    sampling_method, use_full_multiset:
        Passed through to :class:`~repro.core.stage2.Stage2Executor`
        (ablation knobs).
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        epsilon: Optional[float] = None,
        process: str = "push",
        engine=None,
        random_state: RandomState = None,
        round_scale: float = 1.0,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.process = process
        self.engine = engine
        if engine is not None:
            engine_nodes = getattr(engine, "num_nodes", None)
            if engine_nodes is not None and int(engine_nodes) != self.num_nodes:
                raise ValueError(
                    f"engine is built for {engine_nodes} nodes but the protocol "
                    f"was asked to run on {self.num_nodes}"
                )
        self.round_scale = round_scale
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._schedule = schedule
        self._rng = as_generator(random_state)

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

    def run(
        self,
        initial_state: PopulationState,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = False,
    ) -> ProtocolResult:
        """Execute the protocol from ``initial_state``.

        Parameters
        ----------
        initial_state:
            The starting population (rumor source or plurality instance).
        target_opinion:
            The correct opinion ``m``; defaults to the initial plurality.
        stop_at_consensus:
            Stop Stage 2 early once consensus on ``target_opinion`` is
            reached (the success criterion is unaffected).
        """
        from repro.network.delivery import make_delivery_engine

        if initial_state.num_nodes != self.num_nodes:
            raise ValueError(
                f"initial_state has {initial_state.num_nodes} nodes but the "
                f"protocol was built for {self.num_nodes}"
            )
        if initial_state.num_opinions != self.noise.num_opinions:
            raise ValueError(
                "initial_state and noise matrix disagree on the number of "
                f"opinions ({initial_state.num_opinions} vs {self.noise.num_opinions})"
            )
        if target_opinion is None:
            target_opinion = initial_state.plurality_opinion()
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial state has "
                "no opinionated node"
            )
        schedule = self.build_schedule(initial_state.opinionated_count())
        if self.engine is not None:
            engine = self.engine
        else:
            engine = make_delivery_engine(
                self.process, self.num_nodes, self.noise, self._rng
            )
        stage1 = Stage1Executor(engine, schedule.stage1, self._rng)
        state_after_stage1, stage1_records = stage1.run(
            initial_state, track_opinion=target_opinion
        )
        stage2 = Stage2Executor(
            engine,
            schedule.stage2,
            self._rng,
            sampling_method=self.sampling_method,
            use_full_multiset=self.use_full_multiset,
        )
        final_state, stage2_records = stage2.run(
            state_after_stage1,
            track_opinion=target_opinion,
            stop_at_consensus=stop_at_consensus,
        )
        total_rounds = int(
            sum(record.num_rounds for record in stage1_records)
            + sum(record.num_rounds for record in stage2_records)
        )
        return ProtocolResult(
            final_state=final_state,
            target_opinion=target_opinion,
            success=final_state.has_consensus_on(target_opinion),
            total_rounds=total_rounds,
            stage1_records=stage1_records,
            stage2_records=stage2_records,
        )


@dataclass
class EnsembleResult:
    """Outcome of a batched multi-trial protocol execution.

    Attributes
    ----------
    final_states:
        The ensemble state after the last phase (one row per trial).
    target_opinion:
        The correct/plurality opinion ``m`` every trial was tracking.
    successes:
        Boolean ``(R,)`` array; entry ``r`` is ``True`` iff every node of
        trial ``r`` supports ``target_opinion`` at the end.
    total_rounds:
        Communication rounds executed (identical for every trial — the
        schedule is shared and the batch never stops early).
    stage1_records, stage2_records:
        Per-phase batched histories of the two stages.
    """

    final_states: EnsembleState
    target_opinion: int
    successes: np.ndarray
    total_rounds: int
    stage1_records: List[EnsembleStage1PhaseRecord] = field(default_factory=list)
    stage2_records: List[EnsembleStage2PhaseRecord] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        """Number of trials ``R`` in the batch."""
        return self.final_states.num_trials

    @property
    def success_count(self) -> int:
        """Number of trials that reached consensus on the target opinion."""
        return int(np.count_nonzero(self.successes))

    @property
    def success_rate(self) -> float:
        """Empirical success probability over the batch."""
        return self.success_count / self.num_trials

    @property
    def stage1_rounds(self) -> int:
        """Rounds spent in Stage 1."""
        return int(sum(record.num_rounds for record in self.stage1_records))

    @property
    def stage2_rounds(self) -> int:
        """Rounds spent in Stage 2."""
        return int(sum(record.num_rounds for record in self.stage2_records))

    @property
    def final_biases(self) -> np.ndarray:
        """Per-trial bias of the final distribution toward the target."""
        return self.final_states.bias_toward(self.target_opinion)

    @property
    def biases_after_stage1(self) -> Optional[np.ndarray]:
        """Per-trial bias toward the target at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].bias

    @property
    def opinionated_after_stage1(self) -> Optional[np.ndarray]:
        """Per-trial number of opinionated nodes at the end of Stage 1."""
        if not self.stage1_records:
            return None
        return self.stage1_records[-1].opinionated_after

    def correct_fractions(self) -> np.ndarray:
        """Per-trial fraction of nodes supporting the target at the end."""
        return self.final_states.correct_fractions(self.target_opinion)

    def summary(self) -> dict:
        """Headline statistics of the batch."""
        return {
            "num_trials": self.num_trials,
            "target_opinion": self.target_opinion,
            "success_rate": self.success_rate,
            "total_rounds": self.total_rounds,
            "mean_final_bias": float(self.final_biases.mean()),
            "mean_correct_fraction": float(self.correct_fractions().mean()),
        }


class EnsembleProtocol:
    """Run ``R`` independent two-stage protocol trials as one vectorized batch.

    Every trial follows exactly the protocol of :class:`TwoStageProtocol`
    (same schedule, same per-phase rules); the trial axis is simply carried
    through every numpy operation, and the per-round delivery loop collapses
    into per-phase sampling of the balls-into-bins reformulation (Claim 1),
    so the wall-clock cost grows far slower than linearly in ``R``.

    Parameters
    ----------
    num_nodes, noise, schedule, epsilon, process, engine, round_scale,
    sampling_method, use_full_multiset:
        As in :class:`TwoStageProtocol`.  ``engine`` (or ``process``) must be
        an anonymous complete-graph engine exposing
        ``run_ensemble_phase_from_senders``; topology-aware engines must use
        the sequential protocol.
    random_state:
        Either a sequence with one :data:`~repro.utils.rng.RandomState` per
        trial or a single source, spawned into one independent child
        generator per trial.  Trial ``r`` consumes randomness exclusively
        from its own stream, so a batched run is *bitwise identical* to
        ``R`` separate batch-size-1 runs with the same per-trial sources
        (the equivalence the test-suite checks).
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        epsilon: Optional[float] = None,
        process: str = "push",
        engine=None,
        random_state: EnsembleRandomState = None,
        round_scale: float = 1.0,
        sampling_method: str = "without_replacement",
        use_full_multiset: bool = False,
    ) -> None:
        if schedule is None and epsilon is None:
            raise ValueError("either schedule or epsilon must be provided")
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.process = process
        self.engine = engine
        if engine is not None:
            engine_nodes = getattr(engine, "num_nodes", None)
            if engine_nodes is not None and int(engine_nodes) != self.num_nodes:
                raise ValueError(
                    f"engine is built for {engine_nodes} nodes but the protocol "
                    f"was asked to run on {self.num_nodes}"
                )
        self.round_scale = round_scale
        self.sampling_method = sampling_method
        self.use_full_multiset = use_full_multiset
        self._schedule = schedule
        self._random_state = random_state

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

    def run(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
    ) -> EnsembleResult:
        """Execute ``num_trials`` trials from ``initial_state``.

        Parameters
        ----------
        initial_state:
            Either one :class:`PopulationState` (tiled into ``num_trials``
            identical starting points — the usual repeated-trial setting) or
            a pre-built :class:`EnsembleState` with per-trial initial
            conditions (``num_trials`` is then inferred).
        num_trials:
            Number of trials ``R``; required when ``initial_state`` is a
            single population.
        target_opinion:
            The correct opinion ``m``; defaults to the plurality opinion of
            the pooled initial counts.
        """
        from repro.network.delivery import make_delivery_engine

        if isinstance(initial_state, PopulationState):
            if num_trials is None:
                raise ValueError(
                    "num_trials is required when initial_state is a single "
                    "PopulationState"
                )
            ensemble = EnsembleState.from_state(initial_state, num_trials)
        elif isinstance(initial_state, EnsembleState):
            if num_trials is not None and num_trials != initial_state.num_trials:
                raise ValueError(
                    f"num_trials = {num_trials} disagrees with the ensemble's "
                    f"{initial_state.num_trials} trials"
                )
            ensemble = initial_state.copy()
        else:
            raise TypeError(
                "initial_state must be a PopulationState or an EnsembleState, "
                f"got {type(initial_state).__name__}"
            )
        if ensemble.num_nodes != self.num_nodes:
            raise ValueError(
                f"initial state has {ensemble.num_nodes} nodes but the "
                f"protocol was built for {self.num_nodes}"
            )
        if ensemble.num_opinions != self.noise.num_opinions:
            raise ValueError(
                "initial state and noise matrix disagree on the number of "
                f"opinions ({ensemble.num_opinions} vs {self.noise.num_opinions})"
            )
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial ensemble "
                "has no opinionated node"
            )
        schedule = self.build_schedule(
            int(ensemble.opinionated_counts().min())
        )
        if self.engine is not None:
            engine = self.engine
        else:
            engine = make_delivery_engine(
                self.process, self.num_nodes, self.noise, None
            )
        generators = as_trial_generators(self._random_state, ensemble.num_trials)
        stage1 = EnsembleStage1Executor(engine, schedule.stage1, generators)
        state_after_stage1, stage1_records = stage1.run(
            ensemble, track_opinion=target_opinion
        )
        stage2 = EnsembleStage2Executor(
            engine,
            schedule.stage2,
            generators,
            sampling_method=self.sampling_method,
            use_full_multiset=self.use_full_multiset,
        )
        final_states, stage2_records = stage2.run(
            state_after_stage1, track_opinion=target_opinion
        )
        total_rounds = int(
            sum(record.num_rounds for record in stage1_records)
            + sum(record.num_rounds for record in stage2_records)
        )
        return EnsembleResult(
            final_states=final_states,
            target_opinion=target_opinion,
            successes=final_states.consensus_mask(target_opinion),
            total_rounds=total_rounds,
            stage1_records=stage1_records,
            stage2_records=stage2_records,
        )


# reprolint: counts-tier
class CountsProtocol:
    """Run ``R`` protocol trials on ``(R, k)`` sufficient statistics.

    The third engine tier of the two-stage protocol: per-phase cost is
    ``O(k^2)`` per trial — *independent of the population size* — because
    both stages are driven entirely by the opinion-count vector.  Phase
    message histograms are re-colored exactly (Claim 1's balls-into-bins
    reformulation) and the bin-throwing step is summarized under the
    Poissonized process P (Definition 4), the paper's own analysis device;
    Lemma 2 bounds its distance from the real push process, and the
    engine-agreement test-suite checks the resulting statistics against the
    ``batched``/``sequential`` engines.  This is the engine that runs
    ``n = 10^6`` (and beyond) protocol ensembles in seconds.

    :meth:`run` is a one-task :func:`run_heterogeneous_counts_protocol`
    call, the counts tier's only implementation.  The Stage-2 sampling
    ablations need per-node arrival totals and are served by the batched
    and sequential engines.

    Parameters
    ----------
    num_nodes, noise, epsilon, round_scale:
        As in :class:`TwoStageProtocol`; the schedule is built from
        ``epsilon`` at run time.
    random_state:
        One source, whose one stream every trial draws from in turn (see
        :func:`~repro.utils.rng.point_generators`), or one source per
        trial, whose streams keep a batch bitwise reproducible trial by
        trial.
    """

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        *,
        epsilon: float,
        random_state: EnsembleRandomState = None,
        round_scale: float = 1.0,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.noise = noise
        self.epsilon = epsilon
        self.round_scale = round_scale
        self._random_state = random_state

    def run(
        self,
        initial_state: Union[
            PopulationState, EnsembleState, CountsState, EnsembleCountsState
        ],
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
    ) -> EnsembleResult:
        """Execute ``num_trials`` trials from ``initial_state``.

        The counts mirror of :meth:`EnsembleProtocol.run`; per-node initial
        states are reduced to their sufficient statistics on entry, and the
        returned :class:`EnsembleResult` carries an
        :class:`~repro.core.state.EnsembleCountsState` as ``final_states``
        (same accessor API as the batched result).
        """
        task = CountsProtocolTask(
            num_nodes=self.num_nodes,
            noise=self.noise,
            initial_state=initial_state,
            num_trials=num_trials,
            epsilon=self.epsilon,
            target_opinion=target_opinion,
            random_state=self._random_state,
            round_scale=self.round_scale,
        )
        (result,) = run_heterogeneous_counts_protocol([task])
        return result


# reprolint: counts-tier
@dataclass
class CountsProtocolTask:
    """One grid point of a heterogeneous counts-protocol batch.

    ``num_nodes`` is the population the protocol state tracks.  A faulted
    point carries the phase sampler of its faulty sub-population as
    ``fault_sampler``: the state then holds the ``n_h`` honest nodes only,
    every phase appends the sampler's ball deltas to the honest message
    histogram before recoloring, and the Poissonized throw spans
    :attr:`num_bins` ``= n_h + m`` bins.  The sampler counts the rounds it
    has seen, so a faulted task runs once.
    """

    num_nodes: int
    noise: NoiseMatrix
    initial_state: Union[
        PopulationState, EnsembleState, CountsState, EnsembleCountsState
    ]
    num_trials: Optional[int] = None
    epsilon: Optional[float] = None
    schedule: Optional[ProtocolSchedule] = None
    target_opinion: Optional[int] = None
    random_state: EnsembleRandomState = None
    round_scale: float = 1.0
    fault_sampler: Optional[FaultedPhaseSampler] = None

    @property
    def num_bins(self) -> int:
        """Bins of the Poissonized throw: every node, faulty ones included."""
        if self.fault_sampler is None:
            return int(self.num_nodes)
        return int(self.num_nodes) + self.fault_sampler.num_faulty


@dataclass
class _PreparedPoint:
    """A grid point resolved to the state a serial run would start from."""

    task: CountsProtocolTask
    ensemble: EnsembleCountsState
    target_opinion: int
    generators: list  # one per row, see point_generators
    plan: list  # [("s1", phase_index, num_rounds)] + [("s2", j, nr, L)]
    slice: Optional[slice] = None
    stage1_records: list = field(default_factory=list)
    stage2_records: list = field(default_factory=list)


def _prepare_point(
    task: CountsProtocolTask, *, shared_stream=None
) -> _PreparedPoint:
    """Validate one task and resolve its initial state, target, row
    generators and plan.

    A batched-draw run hands every point after the first the first point's
    stream as ``shared_stream``: each row then draws from it, and the
    point's own source is never resolved.
    """
    if task.schedule is None and task.epsilon is None:
        raise ValueError("either schedule or epsilon must be provided")
    num_nodes = int(task.num_nodes)
    ensemble = coerce_to_ensemble_counts(task.initial_state, task.num_trials)
    if ensemble.num_nodes != num_nodes:
        raise ValueError(
            f"initial state has {ensemble.num_nodes} nodes but the "
            f"protocol was built for {num_nodes}"
        )
    if ensemble.num_opinions != task.noise.num_opinions:
        raise ValueError(
            "initial state and noise matrix disagree on the number of "
            f"opinions ({ensemble.num_opinions} vs {task.noise.num_opinions})"
        )
    target_opinion = task.target_opinion
    if target_opinion is None:
        target_opinion = ensemble.pooled_plurality_opinion()
        if target_opinion <= 0:
            raise ValueError(
                "target_opinion could not be inferred: the initial ensemble "
                "has no opinionated node"
            )
    if not 1 <= target_opinion <= ensemble.num_opinions:
        raise ValueError(
            f"opinion must be in [1, {ensemble.num_opinions}], "
            f"got {target_opinion}"
        )
    if task.schedule is not None:
        schedule = task.schedule
    else:
        schedule = ProtocolSchedule.for_population(
            num_nodes,
            float(task.epsilon),
            initial_opinionated=max(1, int(ensemble.opinionated_counts().min())),
            round_scale=task.round_scale,
        )
    _check_histogram_bound(task, schedule)
    if shared_stream is None:
        generators = point_generators(task.random_state, ensemble.num_trials)
    else:
        generators = [shared_stream] * ensemble.num_trials
    plan = [
        ("s1", phase_index, int(num_rounds))
        for phase_index, num_rounds in enumerate(schedule.stage1.phase_lengths)
    ] + [
        ("s2", phase_index, int(num_rounds), int(sample_size))
        for phase_index, (num_rounds, sample_size) in enumerate(
            zip(schedule.stage2.phase_lengths, schedule.stage2.sample_sizes)
        )
    ]
    return _PreparedPoint(
        task=task,
        ensemble=ensemble,
        target_opinion=int(target_opinion),
        generators=generators,
        plan=plan,
    )


#: The largest count an int64 histogram entry, or row total, can hold.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _longest_phase(schedule: ProtocolSchedule) -> int:
    return max(
        list(schedule.stage1.phase_lengths) + list(schedule.stage2.phase_lengths)
    )


def _check_histogram_bound(
    task: CountsProtocolTask, schedule: ProtocolSchedule
) -> None:
    """Reject a point whose phase histograms could overflow int64.

    Each of the ``num_bins`` nodes (honest and faulty) sends one ball per
    round, so a phase of ``r`` rounds puts at most ``num_bins * r`` balls in
    a row's histogram: that bounds every entry and every row total (the
    phase records' ``messages_sent``).  Past ``2^63 - 1`` the int64 product
    wraps, first silently in a row total and then as a negative entry that
    the recolor rejects mid-run.  The check runs before any draw; the
    error names the largest population whose own schedule fits, found by
    bisection since the longest phase grows with ``log n``.
    """
    longest = _longest_phase(schedule)
    if task.num_bins * longest <= _INT64_MAX:
        return
    if task.schedule is not None:
        largest = _INT64_MAX // longest
    else:
        # The initial support sets only the number of growth phases, which
        # are never the longest, so the default schedule serves every n.
        fits, too_large = 1, task.num_bins
        while too_large - fits > 1:
            middle = (fits + too_large) // 2
            middle_schedule = ProtocolSchedule.for_population(
                middle, float(task.epsilon), round_scale=task.round_scale
            )
            if middle * _longest_phase(middle_schedule) <= _INT64_MAX:
                fits = middle
            else:
                too_large = middle
        largest = fits
    raise ScenarioError(
        f"num_nodes = {task.num_bins} is too large for the counts tier: its "
        f"longest phase runs {longest} rounds, and n * {longest} balls "
        f"overflow the int64 phase histograms (2^63 - 1); the largest "
        f"num_nodes that fits is {largest}"
        + (" without faults" if task.fault_sampler is not None else "")
    )


def _gather_submodel(parts, cache):
    """Gathered rows, local slices, delivery model, per-row tracked
    population (``n_h`` under faults), per-row target cells and per-row
    generators (a :class:`~repro.utils.rng.RowGenerators`) for one
    substep.

    The active point set is stable across most substeps (points retire only
    when their schedule ends), so the gathered tuple is cached in ``cache``
    and rebuilt only when the participating points change.
    """
    key = tuple(id(point) for point in parts)
    cached = cache.get(key)
    if cached is not None:
        return cached
    rows = []
    local_slices = []
    offset = 0
    for point in parts:
        sl = point.slice
        size = sl.stop - sl.start
        rows.append(np.arange(sl.start, sl.stop))
        local_slices.append(slice(offset, offset + size))
        offset += size
    sub_model = HeterogeneousCountsDeliveryModel(
        local_slices,
        [point.task.num_bins for point in parts],
        [point.task.noise for point in parts],
    )
    block_rows = [sl.stop - sl.start for sl in local_slices]
    tracked = np.repeat(
        np.asarray([point.task.num_nodes for point in parts], dtype=np.int64),
        block_rows,
    )
    target_cells = (
        np.arange(offset),
        np.repeat(
            np.asarray([point.target_opinion - 1 for point in parts]),
            block_rows,
        ),
    )
    generators = RowGenerators(
        generator for point in parts for generator in point.generators
    )
    gathered = (
        np.concatenate(rows),
        local_slices,
        sub_model,
        tracked,
        target_cells,
        generators,
    )
    cache[key] = gathered
    return gathered


def _row_bias(distributions: np.ndarray, target_cells) -> np.ndarray:
    """Per-row Definition-1 bias, each row toward its own point's target.

    ``target_cells`` indexes every row's target cell.  Evaluates the exact
    expression of :meth:`~repro.core.state.EnsembleCountsState.bias_toward`,
    whose max and difference are row-local, so a merged substep records
    bitwise the biases of each point's serial run.
    """
    if distributions.shape[1] == 1:
        return distributions[:, 0]
    rivals = distributions.copy()
    rivals[target_cells] = -np.inf
    return distributions[target_cells] - rivals.max(axis=1)


def _phase_histograms(counts_sub, generators, parts, local_slices, step):
    """The merged substep's message histograms, faulty balls included.

    Every opinionated node pushes once per round of its point's phase; a
    faulted point then appends its sampler's ball deltas, drawn from the
    point's rows' generators before anything else in the phase.
    """
    num_rounds = np.repeat(
        np.asarray([point.plan[step][2] for point in parts], dtype=np.int64),
        [sl.stop - sl.start for sl in local_slices],
    )
    histograms = counts_sub * num_rounds[:, np.newaxis]
    for point, lsl in zip(parts, local_slices):
        sampler = point.task.fault_sampler
        if sampler is not None:
            histograms[lsl] += sampler.phase_ball_deltas(
                counts_sub[lsl],
                point.plan[step][2],
                generators[lsl],
            )
    return histograms


def _run_stage1_substep(counts, parts, step, cache) -> None:
    """One merged Stage-1 phase over every block whose plan says "s1" now.

    Every phase-record field is computed once over the merged rows; each
    point's record holds its own rows of them.
    """
    (
        rows, local_slices, sub_model, tracked, target_cells, gens_sub
    ) = _gather_submodel(parts, cache)
    counts_sub = counts[rows]
    histograms = _phase_histograms(
        counts_sub, gens_sub, parts, local_slices, step
    )
    noisy = sub_model.recolor(histograms, gens_sub)
    opinionated_before = counts_sub.sum(axis=1, dtype=np.int64)
    adopted = sub_model.sample_adoptions(
        noisy, tracked - opinionated_before, gens_sub
    )
    new_counts = counts_sub + adopted[:, 1:]
    counts[rows] = new_counts
    opinionated_after = new_counts.sum(axis=1, dtype=np.int64)
    newly_opinionated = adopted[:, 1:].sum(axis=1, dtype=np.int64)
    distributions = new_counts / tracked[:, np.newaxis]
    bias = _row_bias(distributions, target_cells)
    messages_sent = histograms.sum(axis=1, dtype=np.int64)
    for point, lsl in zip(parts, local_slices):
        _, phase_index, phase_rounds = point.plan[step]
        point.stage1_records.append(
            EnsembleStage1PhaseRecord(
                phase_index=phase_index,
                num_rounds=phase_rounds,
                opinionated_before=opinionated_before[lsl],
                opinionated_after=opinionated_after[lsl],
                newly_opinionated=newly_opinionated[lsl],
                opinion_distributions=distributions[lsl],
                bias=bias[lsl],
                messages_sent=messages_sent[lsl],
            )
        )


def _run_stage2_substep(counts, parts, step, cache) -> None:
    """One merged Stage-2 phase over every block whose plan says "s2" now.

    Every phase-record field is computed once over the merged rows; each
    point's record holds its own rows of them.
    """
    (
        rows, local_slices, sub_model, tracked, target_cells, gens_sub
    ) = _gather_submodel(parts, cache)
    sample_sizes = [point.plan[step][3] for point in parts]
    sample_sizes_rows = np.repeat(
        np.asarray(sample_sizes, dtype=np.int64),
        [sl.stop - sl.start for sl in local_slices],
    )
    counts_sub = counts[rows]
    bias_before = _row_bias(counts_sub / tracked[:, np.newaxis], target_cells)
    histograms = _phase_histograms(
        counts_sub, gens_sub, parts, local_slices, step
    )
    noisy = sub_model.recolor(histograms, gens_sub)
    update_probability = sub_model.update_probability(noisy, sample_sizes_rows)
    undecided = tracked - counts_sub.sum(axis=1, dtype=np.int64)
    group_sizes = np.concatenate([undecided[:, np.newaxis], counts_sub], axis=1)
    updaters = sub_model.sample_updaters(
        group_sizes, update_probability, gens_sub
    )
    voters = updaters.sum(axis=1, dtype=np.int64)
    votes, vote_paths = sub_model.sample_vote_counts(
        noisy, voters, sample_sizes, gens_sub
    )
    new_counts = counts_sub + votes - updaters[:, 1:]
    counts[rows] = new_counts
    distributions = new_counts / tracked[:, np.newaxis]
    bias_after = _row_bias(distributions, target_cells)
    messages_sent = histograms.sum(axis=1, dtype=np.int64)
    consensus_after = new_counts[target_cells] == tracked
    for point, lsl, vote_path in zip(parts, local_slices, vote_paths):
        _, phase_index, phase_rounds, sample_size = point.plan[step]
        point.stage2_records.append(
            EnsembleStage2PhaseRecord(
                phase_index=phase_index,
                num_rounds=phase_rounds,
                sample_size=sample_size,
                updated_nodes=voters[lsl],
                opinion_distributions=distributions[lsl],
                bias_before=bias_before[lsl],
                bias_after=bias_after[lsl],
                messages_sent=messages_sent[lsl],
                consensus_after=consensus_after[lsl],
                vote_path=vote_path,
            )
        )


# reprolint: counts-tier
def run_heterogeneous_counts_protocol(
    tasks: List[CountsProtocolTask],
    *,
    draw_mode: str = "per-point",
) -> List[EnsembleResult]:
    """Run many counts-protocol grid points as one merged batched computation.

    The counts tier's protocol engine: :meth:`CountsProtocol.run`,
    ``simulate()``'s counts runner and ``simulate_sweep``'s fused batches
    all come here.  Each task is one grid point; the per-point
    :class:`EnsembleResult` is **bitwise identical** to running that task
    alone (``run_heterogeneous_counts_protocol([task])``) — same values,
    same random draws.  The equivalence holds because randomness is per
    point (every row of point ``g`` draws from the point's own generators,
    :func:`~repro.utils.rng.point_generators`, rows in order within each
    draw step, exactly as alone) and every merged floating-point operation
    is row-stable; the one op that is not (the wide ``maj()`` composition
    matmul) is evaluated per block at the block's own row shape by
    :class:`~repro.network.balls_bins.HeterogeneousCountsDeliveryModel`.
    Faulted points (``task.fault_sampler``) merge with fault-free ones:
    each phase adds the point's faulty ball deltas before recoloring.

    Points advance phase-synchronously: at global step ``p`` every point
    still owning a ``p``-th phase executes it (Stage-1 and Stage-2 phases in
    separate merged substeps); points whose schedule is exhausted retire
    early and stop paying any per-step cost.  All points must share the
    number of opinions ``k`` (callers group by ``k`` first).

    ``draw_mode="batched"`` gives up the bitwise guarantee: every row of
    the fused batch draws from one stream, the first point's first row's,
    through the same row helpers, so a substep's rows make one vector call
    per draw step.  The per-row *laws* are untouched, so results are
    samples of exactly the same distribution (verified by the ``pytest -m
    agreement`` TVD/Wilson harness); only the raw draw order differs from
    the serial loop.  Batched runs are themselves deterministic given the
    task seeds.
    """
    if draw_mode not in ("per-point", "batched"):
        raise ValueError(
            f"draw_mode must be 'per-point' or 'batched', got {draw_mode!r}"
        )
    if not tasks:
        return []
    points = [_prepare_point(tasks[0])]
    shared_stream = (
        points[0].generators[0] if draw_mode == "batched" else None
    )
    points += [
        _prepare_point(task, shared_stream=shared_stream) for task in tasks[1:]
    ]
    if shared_stream is not None:
        points[0].generators = [shared_stream] * points[0].ensemble.num_trials
    num_opinions = points[0].ensemble.num_opinions
    if any(p.ensemble.num_opinions != num_opinions for p in points):
        raise ValueError(
            "every task of a heterogeneous batch must share the number of "
            "opinions; group grid points by k first"
        )
    offset = 0
    per_row_nodes = []
    for point in points:
        point.slice = slice(offset, offset + point.ensemble.num_trials)
        offset += point.ensemble.num_trials
        per_row_nodes.append(
            np.full(point.ensemble.num_trials, point.task.num_nodes, dtype=np.int64)
        )
    merged = EnsembleCountsState(
        np.vstack([point.ensemble.counts for point in points]),
        np.concatenate(per_row_nodes),
    )
    counts = merged.counts
    submodel_cache = {}
    step = 0
    while True:
        active = [point for point in points if step < len(point.plan)]
        if not active:
            break
        stage1_parts = [p for p in active if p.plan[step][0] == "s1"]
        stage2_parts = [p for p in active if p.plan[step][0] == "s2"]
        if stage1_parts:
            _run_stage1_substep(counts, stage1_parts, step, submodel_cache)
        if stage2_parts:
            _run_stage2_substep(counts, stage2_parts, step, submodel_cache)
        step += 1
    results = []
    for point in points:
        final_states = EnsembleCountsState(
            counts[point.slice].copy(), point.task.num_nodes
        )
        total_rounds = int(
            sum(record.num_rounds for record in point.stage1_records)
            + sum(record.num_rounds for record in point.stage2_records)
        )
        results.append(
            EnsembleResult(
                final_states=final_states,
                target_opinion=point.target_opinion,
                successes=final_states.consensus_mask(point.target_opinion),
                total_rounds=total_rounds,
                stage1_records=point.stage1_records,
                stage2_records=point.stage2_records,
            )
        )
    return results
