"""Common infrastructure for the baseline opinion dynamics.

Every baseline is a synchronous-round dynamic over a
:class:`~repro.core.state.PopulationState`: in each round every node observes
a few uniformly random nodes' opinions through the noisy channel (the same
noise matrix the paper's protocol faces) and updates its own opinion by a
local rule.  :class:`OpinionDynamics` implements the run loop, convergence
detection and history recording; concrete dynamics implement
:meth:`OpinionDynamics.step`.

:class:`EnsembleOpinionDynamics` is the batched counterpart: ``R``
independent trials evolve together over an ``(R, n)`` opinion matrix
(:class:`~repro.core.state.EnsembleState`), with per-trial convergence
tracking and an active-trials index so converged trials stop costing work.
Trial ``r`` consumes draws from its own per-trial stream only, so a batched
run is bitwise identical to ``R`` batch-size-1 ensemble runs with matched
seeds — exactly the guarantee the ensemble protocol gives.  Agreement with
the sequential :meth:`OpinionDynamics.run` reference engine is
distributional (the batched engine samples the compound observation
channel; see :mod:`repro.network.pull_model`) and is checked statistically
by the test-suite.

:class:`EnsembleCountsDynamics` is the counts tier: ``(R, k)`` opinion
counts, a few multinomials or binomials per trial per round (see
:func:`_run_merged_counts_group`), ``O(k^2)`` per trial independent of
``n``.  Its rule classes declare only a rule family and parameters; the
one round loop is
:func:`run_heterogeneous_counts_dynamics`, which advances any number of
counts runs (a single :meth:`EnsembleCountsDynamics.run`, or a whole sweep
grid) as merged per-family batches.  Counts trials draw from per-trial
streams too, and report in the same :class:`EnsembleDynamicsResult` with an
:class:`~repro.core.state.EnsembleCountsState` as the final state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.state import (
    CountsState,
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
    coerce_to_ensemble_counts,
    opinion_counts_matrix,
)
from repro.network.pull_model import (
    EnsemblePullModel,
    UniformPullModel,
    _size_runs,
    block_majority_vote_law,
    block_matmul,
)
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import (
    EnsembleRandomState,
    RandomState,
    as_generator,
    as_trial_generators,
    binomial_rows,
    multinomial_rows,
)
from repro.utils.validation import require_opinion, require_positive_int

__all__ = [
    "OpinionDynamics",
    "DynamicsResult",
    "EnsembleOpinionDynamics",
    "EnsembleDynamicsResult",
    "EnsembleCountsDynamics",
    "CountsDynamicsTask",
    "run_heterogeneous_counts_dynamics",
]


def _bias_from_counts(
    counts: np.ndarray, opinion: int, num_nodes: int
) -> np.ndarray:
    """Definition-1 bias toward ``opinion`` from opinion counts.

    Works on a single count vector ``(k,)`` or a batch ``(..., k)``; the
    sequential and batched run loops share this helper so both record the
    bias with identical arithmetic.
    """
    distribution = counts / num_nodes
    if distribution.shape[-1] == 1:
        return distribution[..., 0]
    rivals = np.delete(distribution, opinion - 1, axis=-1)
    return distribution[..., opinion - 1] - rivals.max(axis=-1)


@dataclass
class DynamicsResult:
    """Outcome of running a baseline dynamic.

    Attributes
    ----------
    final_state:
        The population state when the run stopped.
    rounds_executed:
        Number of synchronous rounds executed.
    converged:
        ``True`` iff the run stopped because all nodes agreed on one opinion.
    consensus_opinion:
        The agreed opinion when ``converged`` (0 otherwise).
    target_opinion:
        The opinion the run was tracking (initial plurality by default).
    success:
        ``True`` iff the run converged on ``target_opinion``.
    bias_history:
        Bias toward ``target_opinion`` after every round.
    """

    final_state: PopulationState
    rounds_executed: int
    converged: bool
    consensus_opinion: int
    target_opinion: int
    success: bool
    bias_history: List[float] = field(default_factory=list)


class OpinionDynamics(ABC):
    """Base class for synchronous baseline dynamics under noisy observation.

    Parameters
    ----------
    num_nodes:
        Population size ``n``.
    noise:
        Noise matrix applied to every observation; pass the identity matrix
        for the classical noise-free dynamics.
    random_state:
        Randomness source shared by the observation substrate and the rules.
    """

    #: Human-readable name used in comparison tables.
    name: str = "opinion-dynamics"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self._rng = as_generator(random_state)
        self.pull = UniformPullModel(self.num_nodes, noise, self._rng)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @abstractmethod
    def step(self, state: PopulationState) -> None:
        """Execute one synchronous round, mutating ``state`` in place."""

    def _check_state(self, state: PopulationState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def run(
        self,
        initial_state: PopulationState,
        max_rounds: int,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> DynamicsResult:
        """Run the dynamic for up to ``max_rounds`` rounds.

        The run stops early when all nodes share one opinion (if
        ``stop_at_consensus``), which is the natural convergence-time
        measurement used by the baseline-comparison experiment.
        """
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        self._check_state(initial_state)
        state = initial_state.copy()
        if target_opinion is None:
            target_opinion = state.plurality_opinion()
        target_opinion = require_opinion(
            target_opinion, "target_opinion", self.num_opinions,
            allow_undecided=True,
        )
        bias_history: List[float] = []
        rounds_executed = 0
        for _ in range(max_rounds):
            self.step(state)
            rounds_executed += 1
            # One opinion_counts() per round, shared by the bias record, the
            # early-stop check and the final convergence verdict.
            counts = state.opinion_counts()
            if record_history and target_opinion > 0:
                bias_history.append(
                    float(_bias_from_counts(counts, target_opinion, self.num_nodes))
                )
            if stop_at_consensus and counts.max(initial=0) == state.num_nodes:
                break
        converged = bool(counts.max(initial=0) == state.num_nodes)
        consensus_opinion = int(np.argmax(counts)) + 1 if converged else 0
        return DynamicsResult(
            final_state=state,
            rounds_executed=rounds_executed,
            converged=converged,
            consensus_opinion=consensus_opinion,
            target_opinion=target_opinion,
            success=bool(converged and consensus_opinion == target_opinion),
            bias_history=bias_history,
        )


@dataclass
class EnsembleDynamicsResult:
    """Outcome of a batched or counts multi-trial dynamics run.

    Attributes
    ----------
    final_states:
        The state when every trial had stopped (one row per trial): an
        :class:`~repro.core.state.EnsembleState` from the batched engine,
        an :class:`~repro.core.state.EnsembleCountsState` (``(R, k)``
        sufficient statistics) from the counts engine, which never
        materializes per-node opinions.
    rounds_executed:
        Integer ``(R,)`` array: rounds trial ``r`` executed before it
        converged (or hit ``max_rounds``).
    converged:
        Boolean ``(R,)`` mask of trials that reached consensus.
    consensus_opinions:
        Integer ``(R,)`` array: the agreed opinion per converged trial
        (0 otherwise).
    target_opinion:
        The opinion every trial was tracking.
    successes:
        Boolean ``(R,)`` mask: converged on ``target_opinion``.
    bias_history:
        Float ``(T, R)`` matrix: bias toward the target after every executed
        round, where ``T = rounds_executed.max()``.  Rows past a trial's
        convergence repeat its final bias; slice with ``rounds_executed`` (or
        use :meth:`trial_result`) for the per-trial history a sequential run
        would record.  Empty (``T = 0``) when history recording is off.
    """

    final_states: Union[EnsembleState, EnsembleCountsState]
    rounds_executed: np.ndarray
    converged: np.ndarray
    consensus_opinions: np.ndarray
    target_opinion: int
    successes: np.ndarray
    bias_history: np.ndarray

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
    def convergence_rate(self) -> float:
        """Fraction of trials that reached consensus on *some* opinion."""
        return int(np.count_nonzero(self.converged)) / self.num_trials

    @property
    def final_biases(self) -> np.ndarray:
        """Per-trial bias of the final distribution toward the target.

        All zeros when no target was tracked (``target_opinion == 0``), so
        the accessor is total like the rest of the result.
        """
        if self.target_opinion <= 0:
            return np.zeros(self.num_trials, dtype=float)
        return self.final_states.bias_toward(self.target_opinion)

    def trial_result(self, trial: int) -> DynamicsResult:
        """Trial ``trial`` as a standalone :class:`DynamicsResult`.

        Bitwise identical to what a batch-size-1 ensemble run with that
        trial's randomness source would have produced for its only trial
        (a counts result's trial state is a
        :class:`~repro.core.state.CountsState`).
        """
        rounds = int(self.rounds_executed[trial])
        return DynamicsResult(
            final_state=self.final_states.trial_state(trial),
            rounds_executed=rounds,
            converged=bool(self.converged[trial]),
            consensus_opinion=int(self.consensus_opinions[trial]),
            target_opinion=self.target_opinion,
            success=bool(self.successes[trial]),
            bias_history=[
                float(value) for value in self.bias_history[:rounds, trial]
            ],
        )

    def summary(self) -> dict:
        """Headline statistics of the batch."""
        return {
            "num_trials": self.num_trials,
            "target_opinion": self.target_opinion,
            "success_rate": self.success_rate,
            "convergence_rate": self.convergence_rate,
            "mean_rounds": float(self.rounds_executed.mean()),
            "mean_final_bias": float(self.final_biases.mean()),
        }


class EnsembleOpinionDynamics(ABC):
    """Run ``R`` independent trials of a baseline dynamic as one batch.

    Every trial follows exactly the rule of the matching
    :class:`OpinionDynamics` subclass; the trial axis is carried through
    every numpy operation, and per-trial early stopping keeps converged
    trials out of the remaining rounds' work (the *active-trials index*).

    Parameters
    ----------
    num_nodes:
        Population size ``n`` per trial.
    noise:
        Noise matrix applied to every observation.
    random_state:
        Either a sequence with one :data:`~repro.utils.rng.RandomState` per
        trial or a single source, spawned into one independent child
        generator per trial.  Trial ``r`` consumes randomness exclusively
        from its own stream, making a batched run bitwise identical to
        ``R`` batch-size-1 runs with the same sources.
    """

    #: Human-readable name used in comparison tables.
    name: str = "ensemble-opinion-dynamics"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self._random_state = random_state
        self.pull = EnsemblePullModel(self.num_nodes, noise)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    @abstractmethod
    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One synchronous round over every trial of ``state``, in place.

        ``random_state`` is the round's randomness: a list with one
        generator per trial of ``state``.
        """

    def _coerce_ensemble(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        num_trials: Optional[int],
    ) -> EnsembleState:
        if isinstance(initial_state, PopulationState):
            if num_trials is None:
                raise ValueError(
                    "num_trials is required when initial_state is a single "
                    "PopulationState"
                )
            return EnsembleState.from_state(initial_state, num_trials)
        if isinstance(initial_state, EnsembleState):
            if num_trials is not None and num_trials != initial_state.num_trials:
                raise ValueError(
                    f"num_trials = {num_trials} disagrees with the ensemble's "
                    f"{initial_state.num_trials} trials"
                )
            return initial_state.copy()
        raise TypeError(
            "initial_state must be a PopulationState or an EnsembleState, "
            f"got {type(initial_state).__name__}"
        )

    def _check_state(self, state: EnsembleState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def run(
        self,
        initial_state: Union[PopulationState, EnsembleState],
        max_rounds: int,
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> EnsembleDynamicsResult:
        """Run every trial for up to ``max_rounds`` rounds.

        Parameters
        ----------
        initial_state:
            Either one :class:`PopulationState` (tiled into ``num_trials``
            identical starting points) or a pre-built :class:`EnsembleState`
            with per-trial initial conditions (``num_trials`` inferred).
        max_rounds:
            Round budget per trial.
        target_opinion:
            The opinion to track; defaults to the plurality opinion of the
            pooled initial counts (for a tiled ensemble this matches the
            per-trial default of the sequential runner).
        stop_at_consensus:
            Remove a trial from the active set as soon as all its nodes
            agree; converged trials stop consuming randomness and compute.
        record_history:
            Record the per-round bias toward the target for every trial.
        """
        max_rounds = require_positive_int(max_rounds, "max_rounds")
        ensemble = self._coerce_ensemble(initial_state, num_trials)
        self._check_state(ensemble)
        num_trials = ensemble.num_trials
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        target_opinion = require_opinion(
            target_opinion, "target_opinion", self.num_opinions,
            allow_undecided=True,
        )
        generators = as_trial_generators(self._random_state, num_trials)
        opinions = ensemble.opinions
        rounds_executed = np.zeros(num_trials, dtype=np.int64)
        active = np.arange(num_trials)
        bias_rows: List[np.ndarray] = []
        last_bias = np.zeros(num_trials, dtype=float)
        for _ in range(max_rounds):
            if active.size == num_trials:
                # Full batch: step the working state in place.
                self.step(ensemble, generators)
                active_opinions = opinions
            else:
                # The fancy index already yields a fresh in-range matrix, so
                # wrap it without the constructor's copy and range scan.
                sub_state = EnsembleState.wrap(
                    opinions[active], self.num_opinions
                )
                self.step(sub_state, [generators[index] for index in active])
                opinions[active] = sub_state.opinions
                active_opinions = sub_state.opinions
            counts = opinion_counts_matrix(
                active_opinions, self.num_opinions, validate=False
            )
            rounds_executed[active] += 1
            if record_history and target_opinion > 0:
                last_bias = last_bias.copy()
                last_bias[active] = _bias_from_counts(
                    counts, target_opinion, self.num_nodes
                )
                bias_rows.append(last_bias)
            if stop_at_consensus:
                done = counts.max(axis=1) == self.num_nodes
                if done.any():
                    active = active[~done]
                    if active.size == 0:
                        break
        final_counts = ensemble.opinion_counts()
        converged = final_counts.max(axis=1) == self.num_nodes
        consensus_opinions = np.where(
            converged, final_counts.argmax(axis=1) + 1, 0
        ).astype(np.int64)
        bias_history = (
            np.stack(bias_rows)
            if bias_rows
            else np.zeros((0, num_trials), dtype=float)
        )
        return EnsembleDynamicsResult(
            final_states=ensemble,
            rounds_executed=rounds_executed,
            converged=converged,
            consensus_opinions=consensus_opinions,
            target_opinion=target_opinion,
            successes=converged & (consensus_opinions == target_opinion),
            bias_history=bias_history,
        )


# reprolint: counts-tier
class EnsembleCountsDynamics:
    """Run ``R`` independent trials of a dynamic on sufficient statistics.

    The third engine tier.  Every trial follows exactly the rule of the
    matching :class:`OpinionDynamics` subclass, but the state is the
    ``(R, k)`` opinion-count matrix of an
    :class:`~repro.core.state.EnsembleCountsState`: on the complete graph
    the per-node opinion vector is exchangeable, so nodes that react by the
    same law form one group, and one multinomial (or binomial) per group
    reproduces each round's aggregate update *exactly in distribution*.
    Per-round cost is ``O(k^2)`` per trial — independent of ``n`` — and
    nothing allocates an array with an ``n``-sized axis, which is what lets
    the engine simulate millions (or billions) of nodes at fixed cost.

    A rule class declares only its :attr:`rule_family` and parameters
    (``sample_size``, ``phase_budget``, ...).  The round itself lives in the
    merged loop of :func:`run_heterogeneous_counts_dynamics`; :meth:`run`
    is a one-task call into it.

    Trial ``r`` consumes draws from its own generator only (spawned from
    ``random_state``, or taken from a per-trial sequence), so a counts batch
    is bitwise identical to ``R`` batch-size-1 counts runs with the same
    sources; agreement with the ``sequential`` and ``batched`` per-node
    engines is distributional and is checked by the statistical
    engine-agreement test-suite.
    """

    #: Human-readable name used in comparison tables.
    name: str = "counts-opinion-dynamics"

    #: The merged-loop update of the rule, one of ``_RULE_FAMILIES``.
    rule_family: ClassVar[str]

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        self.num_nodes = require_positive_int(num_nodes, "num_nodes")
        self.noise = noise
        self._random_state = random_state

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k``."""
        return self.noise.num_opinions

    def _check_state(self, state: EnsembleCountsState) -> None:
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but the dynamic was built "
                f"for {self.num_nodes}"
            )
        if state.num_opinions != self.num_opinions:
            raise ValueError(
                f"state has {state.num_opinions} opinions but the noise matrix "
                f"has {self.num_opinions}"
            )

    def _begin(self, task: "CountsDynamicsTask") -> "_CountsRunState":
        """Validate one task's inputs and set up its loop state."""
        max_rounds = require_positive_int(task.max_rounds, "max_rounds")
        ensemble = coerce_to_ensemble_counts(
            task.initial_state, task.num_trials
        )
        self._check_state(ensemble)
        num_trials = ensemble.num_trials
        target_opinion = task.target_opinion
        if target_opinion is None:
            target_opinion = ensemble.pooled_plurality_opinion()
        target_opinion = require_opinion(
            target_opinion, "target_opinion", self.num_opinions,
            allow_undecided=True,
        )
        return _CountsRunState(
            ensemble=ensemble,
            max_rounds=max_rounds,
            target_opinion=target_opinion,
            stop_at_consensus=task.stop_at_consensus,
            record_history=task.record_history,
            randomness=as_trial_generators(self._random_state, num_trials),
            rounds_executed=np.zeros(num_trials, dtype=np.int64),
            active=np.arange(num_trials),
            last_bias=np.zeros(num_trials, dtype=float),
        )

    def _finish(self, run: "_CountsRunState") -> EnsembleDynamicsResult:
        """Assemble the :class:`EnsembleDynamicsResult` of a completed loop."""
        counts = run.ensemble.counts
        converged = counts.max(axis=1) == self.num_nodes
        consensus_opinions = np.where(
            converged, counts.argmax(axis=1) + 1, 0
        ).astype(np.int64)
        bias_history = (
            np.stack(run.bias_rows)
            if run.bias_rows
            else np.zeros((0, run.ensemble.num_trials), dtype=float)
        )
        return EnsembleDynamicsResult(
            final_states=run.ensemble,
            rounds_executed=run.rounds_executed,
            converged=converged,
            consensus_opinions=consensus_opinions,
            target_opinion=run.target_opinion,
            successes=converged & (consensus_opinions == run.target_opinion),
            bias_history=bias_history,
        )

    def run(
        self,
        initial_state: Union[
            PopulationState, EnsembleState, CountsState, EnsembleCountsState
        ],
        max_rounds: int,
        num_trials: Optional[int] = None,
        *,
        target_opinion: Optional[int] = None,
        stop_at_consensus: bool = True,
        record_history: bool = True,
    ) -> EnsembleDynamicsResult:
        """Run every trial for up to ``max_rounds`` rounds.

        The counts-engine mirror of :meth:`EnsembleOpinionDynamics.run`
        (same arguments, same early-stopping semantics: converged trials
        leave the active set and stop consuming randomness and compute).
        ``initial_state`` additionally accepts the counts-native state
        types; per-node states are reduced to their sufficient statistics
        on entry.
        """
        (result,) = run_heterogeneous_counts_dynamics(
            [
                CountsDynamicsTask(
                    dynamics=self,
                    initial_state=initial_state,
                    max_rounds=max_rounds,
                    num_trials=num_trials,
                    target_opinion=target_opinion,
                    stop_at_consensus=stop_at_consensus,
                    record_history=record_history,
                )
            ]
        )
        return result


@dataclass
class _CountsRunState:
    """The loop state of one counts-dynamics run in flight."""

    ensemble: EnsembleCountsState
    max_rounds: int
    target_opinion: int
    stop_at_consensus: bool
    record_history: bool
    randomness: List[np.random.Generator]
    rounds_executed: np.ndarray
    active: np.ndarray
    last_bias: np.ndarray
    bias_rows: List[np.ndarray] = field(default_factory=list)


# reprolint: counts-tier
@dataclass
class CountsDynamicsTask:
    """One grid point of a heterogeneous counts-dynamics batch.

    Carries exactly the arguments a serial per-point loop would pass to
    :meth:`EnsembleCountsDynamics.run` on ``dynamics``; several tasks may
    share one ``dynamics`` object, as a serial loop may reuse one engine.
    """

    dynamics: EnsembleCountsDynamics
    initial_state: Union[
        PopulationState, EnsembleState, CountsState, EnsembleCountsState
    ]
    max_rounds: int
    num_trials: Optional[int] = None
    target_opinion: Optional[int] = None
    stop_at_consensus: bool = True
    record_history: bool = True


#: The update families of the merged round loop (see
#: :func:`_run_merged_counts_group`).
_RULE_FAMILIES = ("voter", "majority", "undecided", "median", "approximate")


# reprolint: counts-tier
def _run_merged_counts_group(
    kind: str,
    tasks: List[CountsDynamicsTask],
    states: List[_CountsRunState],
) -> None:
    """Advance a group of same-``(kind, k)`` points as one merged batch.

    The rule families:

    * ``voter`` / ``majority``: each node draws one observation (or one
      ``maj()`` vote over ``sample_size`` observations) and adopts the
      opinion it got; a node that got none keeps its own.  Only that case
      depends on the node's own opinion, so a row with undecided nodes
      draws one multinomial per current-opinion group, while a row with
      none (exactly 0.0 "no opinion" mass, from the integer undecided
      count) draws its ``n`` nodes as one group: one multinomial.
    * ``undecided``: the undecided-state rule over one observation: one
      multinomial for the undecided group, and one binomial per opinion
      group for its nodes that see another opinion.
    * ``median``: median of the own value and two observations, through
      the one-hot transition tensor of the median rule: one multinomial
      over observation pairs per current-opinion group.
    * ``approximate``: in each of its first ``phase_budget`` rounds every
      node of a trial resamples from the trial's midpoint-of-extremes law,
      one ``multinomial(n, law)`` per row; afterwards the point holds
      still.  A point's phase is its round index, so points (and tasks
      sharing one dynamics object) never share a phase counter.

    Every draw is one scalar call per nonempty group
    (:func:`~repro.utils.rng.multinomial_rows`,
    :func:`~repro.utils.rng.binomial_rows`).

    All heterogeneity is per row or per block: per-row population sizes,
    per-block noise matrices, ``maj()`` sample sizes and phase budgets,
    per-row generators, per-point round budgets and convergence masks.
    Every floating-point operation either is elementwise / a per-row
    reduction (row-stable by construction) or is a matmul applied at one
    point's own active-row shape (one stacked matmul per run of
    equal-size blocks, see :func:`~repro.network.pull_model._size_runs`),
    and every draw comes from the row's own generator — so a point's
    trajectory does not depend on what else shares its batch.  Mutates
    ``states`` in place; callers finish with ``_finish``.
    """
    num_opinions = tasks[0].dynamics.num_opinions
    # Imported lazily: the rule modules import this one.
    if kind == "median":
        from repro.dynamics.median_rule import _median_transition_tensor

        transition = _median_transition_tensor(num_opinions)
    elif kind == "undecided":
        off_diagonal = 1.0 - np.eye(num_opinions)
    elif kind == "approximate":
        from repro.dynamics.approximate_consensus import (
            interval_midpoint_law,
        )
    live = list(range(len(tasks)))
    global_round = 0
    rebuild = True
    while live:
        if rebuild:
            # (Re)assemble the merged batch.  Between retirement events
            # the active sets are frozen, so this runs only when a row
            # converges or a point exhausts its round budget — the steady
            # state pays no per-block bookkeeping at all.
            blocks = []
            counts_parts: List[np.ndarray] = []
            node_parts: List[np.ndarray] = []
            stop_parts: List[np.ndarray] = []
            generators: List = []
            position = 0
            for index in live:
                state = states[index]
                dynamics = tasks[index].dynamics
                size = state.active.size
                blocks.append(
                    (
                        index,
                        state,
                        dynamics,
                        slice(position, position + size),
                        dynamics.noise.matrix,
                    )
                )
                counts_parts.append(state.ensemble.counts[state.active])
                node_parts.append(
                    np.full(size, dynamics.num_nodes, dtype=np.int64)
                )
                stop_parts.append(
                    np.full(size, state.stop_at_consensus, dtype=bool)
                )
                generators.extend(state.randomness[row] for row in state.active)
                position += size
            counts_active = np.vstack(counts_parts)
            nodes_active = np.concatenate(node_parts)
            stop_mask = np.concatenate(stop_parts)
            any_stop = bool(stop_mask.any())
            block_sizes = [entry[3].stop - entry[3].start for entry in blocks]
            runs = _size_runs(block_sizes)
            block_noise = np.stack([entry[4] for entry in blocks])
            if kind == "majority":
                law_groups = _sample_size_groups(blocks, block_sizes)
            bias_blocks = [
                entry
                for entry in blocks
                if entry[1].record_history and entry[1].target_opinion > 0
            ]
            num_rows = counts_active.shape[0]
            deadline = min(states[index].max_rounds for index in live)
            rebuild = False
        if kind == "approximate":
            law = np.zeros((num_rows, num_opinions))
            moving = np.zeros(num_rows, dtype=bool)
            for index, state, dynamics, block, noise_matrix in blocks:
                if global_round < dynamics.phase_budget:
                    law[block], moving[block] = interval_midpoint_law(
                        counts_active[block],
                        dynamics.num_nodes,
                        dynamics.noise,
                        dynamics.acceptance,
                    )
            # A row with no opinion mass has no law and holds still, as do
            # the rows of a point past its phase budget.
            drawn = multinomial_rows(
                generators, np.where(moving, nodes_active, 0), law
            )
            counts_active = np.where(
                moving[:, np.newaxis], drawn, counts_active
            )
        else:
            # Observation pmf over {no opinion, 1..k} with per-row n and
            # per-block noise.  "No opinion" is the undecided share, taken
            # from the integer count, so a row with no undecided node has
            # exactly 0.0 there (and its maj() law exactly 0.0 "no vote").
            # The clip only keeps the matmul's rounding inside [0, 1].
            undecided = nodes_active - counts_active.sum(axis=1, dtype=np.int64)
            shares = counts_active / nodes_active[:, np.newaxis]
            noisy = block_matmul(shares, block_noise, runs)
            pmf = np.clip(
                np.concatenate(
                    [(undecided / nodes_active)[:, np.newaxis], noisy], axis=1
                ),
                0.0,
                1.0,
            )
            if kind == "undecided":
                # The undecided group adopts what it sees (none: stays
                # undecided): one multinomial.  A node of opinion g turns
                # undecided iff it sees another opinion: one binomial per
                # group, with per-cell p = the other opinions' mass.
                seen = multinomial_rows(generators, undecided, pmf)
                others = np.minimum(
                    (noisy[:, np.newaxis, :] * off_diagonal).sum(axis=2), 1.0
                )
                switched = binomial_rows(generators, counts_active, others)
                counts_active = seen[:, 1:] + counts_active - switched
            else:
                if kind == "majority":
                    draw_pmf = np.empty_like(pmf)
                    for sample_size, rows, law_runs in law_groups:
                        draw_pmf[rows] = block_majority_vote_law(
                            pmf[rows], sample_size, law_runs
                        )
                elif kind == "median":
                    # Ordered observation pairs, indexed first * (k + 1) +
                    # second.
                    draw_pmf = (
                        pmf[:, :, np.newaxis] * pmf[:, np.newaxis, :]
                    ).reshape(num_rows, -1)
                else:
                    draw_pmf = pmf
                sizes = np.concatenate(
                    [undecided[:, np.newaxis], counts_active], axis=1
                )
                if kind != "median":
                    # With no undecided node nobody sees "no opinion", so
                    # every node reacts by the same law whatever it holds:
                    # the row's n nodes draw as one group.
                    decided = undecided == 0
                    sizes[decided, 0] = nodes_active[decided]
                    sizes[decided, 1:] = 0
                # drawn[r, g, o]: row-r nodes of group g (0 = undecided, or
                # the whole row when it has none) whose draw came out o (0 =
                # no opinion seen), one scalar multinomial per nonempty
                # group (multinomial_rows).
                drawn = multinomial_rows(generators, sizes, draw_pmf)
                if kind == "median":
                    counts_active = np.einsum(
                        "rgp,gpv->rv", drawn, transition
                    )[:, 1:]
                else:
                    counts_active = (
                        drawn[:, :, 1:].sum(axis=1) + drawn[:, 1:, 0]
                    )
        global_round += 1
        for index, state, dynamics, block, noise_matrix in bias_blocks:
            state.last_bias = state.last_bias.copy()
            state.last_bias[state.active] = _bias_from_counts(
                counts_active[block], state.target_opinion, dynamics.num_nodes
            )
            state.bias_rows.append(state.last_bias)
        retired = False
        if any_stop:
            done_rows = (
                counts_active.max(axis=1) == nodes_active
            ) & stop_mask
            retired = bool(done_rows.any())
        if retired or global_round == deadline:
            still_live: List[int] = []
            for index, state, dynamics, block, noise_matrix in blocks:
                state.ensemble.counts[state.active] = counts_active[block]
                if retired:
                    local_done = done_rows[block]
                    if local_done.any():
                        state.rounds_executed[
                            state.active[local_done]
                        ] = global_round
                        state.active = state.active[~local_done]
                if (
                    global_round >= state.max_rounds
                    or state.active.size == 0
                ):
                    # Rows still active stepped in every round so far.
                    state.rounds_executed[state.active] = global_round
                    continue
                still_live.append(index)
            live = still_live
            rebuild = True


def _sample_size_groups(blocks, block_sizes):
    """``(sample_size, rows, runs)`` per distinct ``maj()`` sample size.

    ``rows`` selects the merged rows of the blocks with that sample size
    (every row when all blocks share it) and ``runs`` are their
    :func:`_size_runs`, for :func:`block_majority_vote_law`.
    """
    positions: Dict[int, List[int]] = {}
    for position, entry in enumerate(blocks):
        positions.setdefault(entry[2].sample_size, []).append(position)
    groups = []
    for sample_size, members in positions.items():
        if len(members) == len(blocks):
            rows = slice(None)
        else:
            rows = np.concatenate(
                [np.arange(blocks[m][3].start, blocks[m][3].stop) for m in members]
            )
        groups.append(
            (sample_size, rows, _size_runs([block_sizes[m] for m in members]))
        )
    return groups


# reprolint: counts-tier
def run_heterogeneous_counts_dynamics(
    tasks: List[CountsDynamicsTask],
) -> List[EnsembleDynamicsResult]:
    """Run many counts-dynamics grid points in one shared round loop.

    The only counts-dynamics round loop: :meth:`EnsembleCountsDynamics.run`
    is a one-task call, and the sweep engine passes a whole grid.  Points
    are grouped by ``(rule family, k)`` and each group advances as one
    merged ``(sum of trials, k)`` batch per round — per-row population
    sizes, per-block noise matrices and laws, per-block convergence masks,
    early retirement of finished points (see
    :func:`_run_merged_counts_group`).  Every point's
    :class:`EnsembleDynamicsResult` is **bitwise identical** to
    ``task.dynamics.run(...)`` with the same arguments, whatever else
    shares the batch.
    """
    states = [task.dynamics._begin(task) for task in tasks]
    groups: Dict[Tuple[str, int], List[int]] = {}
    for index, task in enumerate(tasks):
        kind = getattr(task.dynamics, "rule_family", None)
        if kind not in _RULE_FAMILIES:
            raise TypeError(
                f"{type(task.dynamics).__name__} declares no counts rule "
                f"family; rule_family must be one of {_RULE_FAMILIES}"
            )
        groups.setdefault((kind, task.dynamics.num_opinions), []).append(
            index
        )
    for (kind, _), indices in groups.items():
        _run_merged_counts_group(
            kind,
            [tasks[index] for index in indices],
            [states[index] for index in indices],
        )
    return [
        task.dynamics._finish(state) for task, state in zip(tasks, states)
    ]
