"""The unified :class:`SimulationResult` every facade run returns.

One result type across all three engine tiers and all workloads: per-trial
converged/success masks, executed rounds, final bias and opinion counts,
optional bias trajectories, and a provenance dictionary (engine used, seed,
code version, wall time, the scenario itself).  Adapter constructors build
it from every engine result type (:class:`~repro.core.protocol.
ProtocolResult`, :class:`~repro.core.protocol.EnsembleResult`,
:class:`~repro.dynamics.base.DynamicsResult` and
:class:`~repro.dynamics.base.EnsembleDynamicsResult`, the last one shared
by the batched and counts dynamics tiers), which is what lets one facade
supersede four result dataclasses without re-deriving a single number —
the adapters only re-arrange what the engines already measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.protocol import EnsembleResult, ProtocolResult
from repro.dynamics.base import DynamicsResult, EnsembleDynamicsResult
from repro.utils.artifacts import jsonify_value

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.analytic import AnalyticProtocolResult
    from repro.dynamics.analytic import AnalyticDynamicsResult

__all__ = ["SimulationResult"]


def _protocol_trajectories(
    stage1_biases: Sequence[np.ndarray], stage2_biases: Sequence[np.ndarray]
) -> Optional[np.ndarray]:
    """Per-phase ``(R, P)`` bias trajectory over both stages, if recorded."""
    columns = [column for column in (*stage1_biases, *stage2_biases) if column is not None]
    if not columns:
        return None
    return np.stack([np.asarray(column, dtype=float) for column in columns], axis=1)


@dataclass
class SimulationResult:
    """What one :func:`repro.sim.simulate` call measured.

    Attributes
    ----------
    workload:
        The scenario workload (``"rumor"``, ``"plurality"``, ``"dynamics"``).
    engine:
        The concrete engine tier that executed the run (``"sequential"``,
        ``"batched"`` or ``"counts"`` — never ``"auto"``).
    num_nodes, num_opinions, num_trials:
        The executed scale.
    target_opinion:
        The opinion every trial tracked.
    successes:
        Boolean ``(R,)`` mask: consensus on ``target_opinion`` at the end.
    converged:
        Boolean ``(R,)`` mask: consensus on *some* opinion at the end (for
        the protocol workloads this is computed from the final counts, so a
        run that converged on a wrong opinion shows up here).
    rounds:
        Integer ``(R,)`` array of executed communication rounds per trial
        (identical entries for the protocol workloads — the schedule is
        shared).
    final_biases:
        Float ``(R,)`` array: Definition-1 bias toward the target at the end.
    final_opinion_counts:
        Integer ``(R, k)`` matrix of final opinion counts per trial.
    consensus_opinions:
        Integer ``(R,)`` array: the agreed opinion per converged trial
        (0 otherwise).
    bias_after_stage1:
        Float ``(R,)`` array of end-of-Stage-1 biases (protocol workloads
        with recorded Stage-1 phases; ``None`` otherwise).
    stage1_rounds:
        Rounds spent in Stage 1 (protocol workloads; ``None`` otherwise).
    trajectories:
        Optional float ``(R, T)`` bias trajectory — per protocol phase for
        the protocol workloads, per round for the dynamics workload.  The
        analytic tier stores its single expected-bias trajectory as the
        one row of a ``(1, T)`` matrix.
    success_probability, convergence_probability:
        Analytic tier only: the exact outcome probabilities.  When set,
        :attr:`success_rate` / :attr:`convergence_rate` return them
        instead of empirical frequencies (the analytic tier samples no
        trials, so the per-trial arrays are empty).
    expected_rounds, expected_final_bias, expected_final_counts:
        Analytic tier only: exact expectations of the matching
        per-trial statistics.
    expected_bias_after_stage1:
        Analytic tier, protocol workloads only: the expected end-of-
        Stage-1 bias.
    analytic_method:
        ``"exact"`` when the analytic tier produced the result; ``None``
        for the sampling tiers.
    state_space_size:
        Size of the enumerated count simplex (analytic tier only).
    provenance:
        How the result was produced: resolved engine, requested policy,
        seed, facade code version, wall time, the full scenario
        dictionary, and for a sampled protocol run the delivery process it
        simulated (``delivery_process``: ``"poisson"`` on the counts tier,
        ``"balls_bins"`` for a faulted per-node run, ``"push"`` on a
        non-complete topology, ``scenario.process`` otherwise).  Filled in by :func:`~repro.sim.facade.simulate`, which
        keeps the entries the engine's adapter set (a counts protocol
        result's ``stage2_vote_paths``).
    """

    workload: str
    engine: str
    num_nodes: int
    num_opinions: int
    num_trials: int
    target_opinion: int
    successes: np.ndarray
    converged: np.ndarray
    rounds: np.ndarray
    final_biases: np.ndarray
    final_opinion_counts: np.ndarray
    consensus_opinions: np.ndarray
    bias_after_stage1: Optional[np.ndarray] = None
    stage1_rounds: Optional[int] = None
    trajectories: Optional[np.ndarray] = None
    success_probability: Optional[float] = None
    convergence_probability: Optional[float] = None
    expected_rounds: Optional[float] = None
    expected_final_bias: Optional[float] = None
    expected_final_counts: Optional[np.ndarray] = None
    expected_bias_after_stage1: Optional[float] = None
    analytic_method: Optional[str] = None
    state_space_size: Optional[int] = None
    provenance: Dict[str, Any] = field(default_factory=dict)

    # ---------------------- derived statistics ---------------------- #

    @property
    def is_analytic(self) -> bool:
        """Whether the analytic tier produced this result (no sampling)."""
        return self.analytic_method is not None

    @property
    def success_count(self) -> int:
        """Number of trials that reached consensus on the target opinion."""
        return int(np.count_nonzero(self.successes))

    @property
    def success_rate(self) -> float:
        """Success probability: computed (analytic tier) or empirical."""
        if self.success_probability is not None:
            return float(self.success_probability)
        return self.success_count / self.num_trials

    @property
    def convergence_rate(self) -> float:
        """Probability of consensus on *some* opinion (computed or empirical)."""
        if self.convergence_probability is not None:
            return float(self.convergence_probability)
        return int(np.count_nonzero(self.converged)) / self.num_trials

    @property
    def mean_rounds(self) -> float:
        """Mean executed rounds per trial (expected rounds on the analytic tier)."""
        if self.expected_rounds is not None:
            return float(self.expected_rounds)
        return float(self.rounds.mean())

    @property
    def mean_final_bias(self) -> float:
        """Mean final bias toward the target opinion."""
        if self.expected_final_bias is not None:
            return float(self.expected_final_bias)
        return float(self.final_biases.mean())

    def correct_fractions(self) -> np.ndarray:
        """Per-trial fraction of nodes on the target opinion at the end."""
        return (
            self.final_opinion_counts[:, self.target_opinion - 1]
            / self.num_nodes
        )

    def summary(self) -> Dict[str, Any]:
        """Headline statistics of the run."""
        document = {
            "workload": self.workload,
            "engine": self.engine,
            "num_nodes": self.num_nodes,
            "num_trials": self.num_trials,
            "target_opinion": self.target_opinion,
            "success_rate": self.success_rate,
            "convergence_rate": self.convergence_rate,
            "mean_rounds": self.mean_rounds,
            "mean_final_bias": self.mean_final_bias,
        }
        if self.analytic_method is not None:
            document["analytic_method"] = self.analytic_method
        return document

    # ------------------- adapters from legacy results ------------------- #

    @classmethod
    def from_protocol_results(
        cls,
        results: Sequence[ProtocolResult],
        *,
        workload: str,
        engine: str = "sequential",
    ) -> "SimulationResult":
        """Adapt a sequence of per-trial :class:`ProtocolResult` objects."""
        if not results:
            raise ValueError("at least one ProtocolResult is required")
        first = results[0]
        target = int(first.target_opinion)
        counts = np.stack(
            [result.final_state.opinion_counts() for result in results]
        ).astype(np.int64)
        num_nodes = first.final_state.num_nodes
        converged = counts.max(axis=1) == num_nodes
        consensus = np.where(converged, counts.argmax(axis=1) + 1, 0).astype(
            np.int64
        )
        stage1_biases = [result.bias_after_stage1 for result in results]
        has_stage1 = all(value is not None for value in stage1_biases)
        per_trial = [result.bias_trajectory() for result in results]
        lengths = {trajectory.shape[0] for trajectory in per_trial}
        trajectories = (
            np.stack(per_trial) if len(lengths) == 1 and lengths != {0} else None
        )
        return cls(
            workload=workload,
            engine=engine,
            num_nodes=num_nodes,
            num_opinions=first.final_state.num_opinions,
            num_trials=len(results),
            target_opinion=target,
            successes=np.asarray([result.success for result in results], dtype=bool),
            converged=converged,
            rounds=np.asarray(
                [result.total_rounds for result in results], dtype=np.int64
            ),
            final_biases=np.asarray(
                [result.final_bias for result in results], dtype=float
            ),
            final_opinion_counts=counts,
            consensus_opinions=consensus,
            bias_after_stage1=(
                np.asarray(stage1_biases, dtype=float) if has_stage1 else None
            ),
            stage1_rounds=int(first.stage1_rounds),
            trajectories=trajectories,
        )

    @classmethod
    def from_ensemble_result(
        cls,
        result: EnsembleResult,
        *,
        workload: str,
        engine: str,
    ) -> "SimulationResult":
        """Adapt a batched or counts :class:`EnsembleResult`.

        A counts result carries ``provenance["stage2_vote_paths"]``, the
        ``maj()`` vote path of each Stage-2 phase.
        """
        counts = np.asarray(result.final_states.opinion_counts(), dtype=np.int64)
        num_nodes = result.final_states.num_nodes
        converged = counts.max(axis=1) == num_nodes
        consensus = np.where(converged, counts.argmax(axis=1) + 1, 0).astype(
            np.int64
        )
        stage1_biases = result.biases_after_stage1
        trajectories = _protocol_trajectories(
            [record.bias for record in result.stage1_records],
            [record.bias_after for record in result.stage2_records],
        )
        return cls(
            workload=workload,
            engine=engine,
            num_nodes=num_nodes,
            num_opinions=result.final_states.num_opinions,
            num_trials=result.num_trials,
            target_opinion=int(result.target_opinion),
            successes=np.asarray(result.successes, dtype=bool),
            converged=converged,
            rounds=np.full(result.num_trials, result.total_rounds, dtype=np.int64),
            final_biases=np.asarray(result.final_biases, dtype=float),
            final_opinion_counts=counts,
            consensus_opinions=consensus,
            bias_after_stage1=(
                np.asarray(stage1_biases, dtype=float)
                if stage1_biases is not None
                else None
            ),
            stage1_rounds=int(result.stage1_rounds),
            trajectories=trajectories,
            provenance=(
                {
                    "stage2_vote_paths": [
                        record.vote_path for record in result.stage2_records
                    ]
                }
                if engine == "counts"
                else {}
            ),
        )

    @classmethod
    def from_dynamics_results(
        cls,
        results: Sequence[DynamicsResult],
        *,
        engine: str = "sequential",
    ) -> "SimulationResult":
        """Adapt a sequence of per-trial :class:`DynamicsResult` objects.

        Per-trial bias histories may be ragged (early-stopped trials record
        fewer rounds); the trajectory matrix pads each row with its final
        value, mirroring the batched engine's history semantics.
        """
        if not results:
            raise ValueError("at least one DynamicsResult is required")
        first = results[0]
        counts = np.stack(
            [result.final_state.opinion_counts() for result in results]
        ).astype(np.int64)
        histories = [result.bias_history for result in results]
        max_rounds = max((len(history) for history in histories), default=0)
        if max_rounds > 0 and all(histories):
            trajectories = np.stack(
                [
                    np.asarray(
                        history + [history[-1]] * (max_rounds - len(history)),
                        dtype=float,
                    )
                    for history in histories
                ]
            )
        else:
            trajectories = None
        return cls(
            workload="dynamics",
            engine=engine,
            num_nodes=first.final_state.num_nodes,
            num_opinions=first.final_state.num_opinions,
            num_trials=len(results),
            target_opinion=int(first.target_opinion),
            successes=np.asarray([result.success for result in results], dtype=bool),
            converged=np.asarray(
                [result.converged for result in results], dtype=bool
            ),
            rounds=np.asarray(
                [result.rounds_executed for result in results], dtype=np.int64
            ),
            final_biases=np.asarray(
                [
                    (
                        result.final_state.bias_toward(result.target_opinion)
                        if result.target_opinion > 0
                        else 0.0
                    )
                    for result in results
                ],
                dtype=float,
            ),
            final_opinion_counts=counts,
            consensus_opinions=np.asarray(
                [result.consensus_opinion for result in results], dtype=np.int64
            ),
            trajectories=trajectories,
        )

    @classmethod
    def from_ensemble_dynamics_result(
        cls,
        result: EnsembleDynamicsResult,
        *,
        engine: str,
    ) -> "SimulationResult":
        """Adapt a batched or counts multi-trial dynamics result."""
        final_states = result.final_states
        counts = np.asarray(final_states.opinion_counts(), dtype=np.int64)
        history = result.bias_history
        trajectories = history.T.copy() if history.size else None
        return cls(
            workload="dynamics",
            engine=engine,
            num_nodes=final_states.num_nodes,
            num_opinions=final_states.num_opinions,
            num_trials=result.num_trials,
            target_opinion=int(result.target_opinion),
            successes=np.asarray(result.successes, dtype=bool),
            converged=np.asarray(result.converged, dtype=bool),
            rounds=np.asarray(result.rounds_executed, dtype=np.int64),
            final_biases=np.asarray(result.final_biases, dtype=float),
            final_opinion_counts=counts,
            consensus_opinions=np.asarray(
                result.consensus_opinions, dtype=np.int64
            ),
            trajectories=trajectories,
        )

    @classmethod
    def from_analytic_dynamics(
        cls,
        result: AnalyticDynamicsResult,
        *,
        engine: str = "analytic",
    ) -> "SimulationResult":
        """Adapt an :class:`AnalyticDynamicsResult`.

        The analytic tier evolves the state *distribution*, so there are
        no trials: the per-trial arrays are empty (``num_trials == 0``)
        and the derived statistics come from the ``*_probability`` /
        ``expected_*`` fields instead.  ``trajectories`` carries the
        expected-bias trajectory as a single ``(1, T)`` row.
        """
        trajectory = np.asarray(result.bias_trajectory, dtype=float)
        return cls(
            workload="dynamics",
            engine=engine,
            num_nodes=result.num_nodes,
            num_opinions=result.num_opinions,
            num_trials=0,
            target_opinion=int(result.target_opinion),
            successes=np.zeros(0, dtype=bool),
            converged=np.zeros(0, dtype=bool),
            rounds=np.zeros(0, dtype=np.int64),
            final_biases=np.zeros(0, dtype=float),
            final_opinion_counts=np.zeros(
                (0, result.num_opinions), dtype=np.int64
            ),
            consensus_opinions=np.zeros(0, dtype=np.int64),
            trajectories=(
                trajectory[np.newaxis, :] if trajectory.size else None
            ),
            success_probability=float(result.success_probability),
            convergence_probability=float(result.convergence_probability),
            expected_rounds=float(result.expected_rounds),
            expected_final_bias=float(result.expected_final_bias),
            expected_final_counts=np.asarray(
                result.expected_final_counts, dtype=float
            ),
            analytic_method=result.method,
            state_space_size=result.state_space_size,
        )

    @classmethod
    def from_analytic_protocol(
        cls,
        result: AnalyticProtocolResult,
        *,
        workload: str,
        engine: str = "analytic",
    ) -> "SimulationResult":
        """Adapt an :class:`AnalyticProtocolResult`."""
        phase_biases = np.asarray(result.phase_biases, dtype=float)
        return cls(
            workload=workload,
            engine=engine,
            num_nodes=result.num_nodes,
            num_opinions=result.num_opinions,
            num_trials=0,
            target_opinion=int(result.target_opinion),
            successes=np.zeros(0, dtype=bool),
            converged=np.zeros(0, dtype=bool),
            rounds=np.zeros(0, dtype=np.int64),
            final_biases=np.zeros(0, dtype=float),
            final_opinion_counts=np.zeros(
                (0, result.num_opinions), dtype=np.int64
            ),
            consensus_opinions=np.zeros(0, dtype=np.int64),
            stage1_rounds=int(result.stage1_rounds),
            trajectories=(
                phase_biases[np.newaxis, :] if phase_biases.size else None
            ),
            success_probability=float(result.success_probability),
            convergence_probability=float(result.convergence_probability),
            expected_rounds=float(result.total_rounds),
            expected_final_bias=float(result.expected_final_bias),
            expected_final_counts=np.asarray(
                result.expected_final_counts, dtype=float
            ),
            expected_bias_after_stage1=float(result.expected_bias_after_stage1),
            analytic_method=result.method,
            state_space_size=result.state_space_size,
        )

    # --------------------------- JSON I/O --------------------------- #

    def to_json_dict(self) -> Dict[str, Any]:
        """The result as plain JSON-serializable data.

        Uses :func:`~repro.utils.artifacts.jsonify_value` — the
        repository's one canonical JSON encoder — so facade payloads and
        orchestrator artifacts normalize identically.
        """
        return {
            "workload": self.workload,
            "engine": self.engine,
            "num_nodes": int(self.num_nodes),
            "num_opinions": int(self.num_opinions),
            "num_trials": int(self.num_trials),
            "target_opinion": int(self.target_opinion),
            "successes": jsonify_value(self.successes),
            "converged": jsonify_value(self.converged),
            "rounds": jsonify_value(self.rounds),
            "final_biases": jsonify_value(self.final_biases),
            "final_opinion_counts": jsonify_value(self.final_opinion_counts),
            "consensus_opinions": jsonify_value(self.consensus_opinions),
            "bias_after_stage1": jsonify_value(self.bias_after_stage1),
            "stage1_rounds": (
                int(self.stage1_rounds) if self.stage1_rounds is not None else None
            ),
            "trajectories": jsonify_value(self.trajectories),
            "success_probability": self.success_probability,
            "convergence_probability": self.convergence_probability,
            "expected_rounds": self.expected_rounds,
            "expected_final_bias": self.expected_final_bias,
            "expected_final_counts": jsonify_value(self.expected_final_counts),
            "expected_bias_after_stage1": self.expected_bias_after_stage1,
            "analytic_method": self.analytic_method,
            "state_space_size": (
                int(self.state_space_size)
                if self.state_space_size is not None
                else None
            ),
            "provenance": jsonify_value(self.provenance),
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Serialize the result to JSON."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(
        cls, document: Union[str, Mapping[str, Any]]
    ) -> "SimulationResult":
        """Rebuild a result from :meth:`to_json` output (string or dict)."""
        if isinstance(document, str):
            document = json.loads(document)
        if not isinstance(document, Mapping):
            raise TypeError(
                "document must be a JSON object string or a mapping, got "
                f"{type(document).__name__}"
            )
        missing = [
            key
            for key in ("workload", "engine", "num_trials", "successes")
            if key not in document
        ]
        if missing:
            raise ValueError(
                f"simulation-result document is missing fields: {missing}"
            )
        optional_stage1 = document.get("bias_after_stage1")
        trajectories = document.get("trajectories")
        return cls(
            workload=str(document["workload"]),
            engine=str(document["engine"]),
            num_nodes=int(document["num_nodes"]),
            num_opinions=int(document["num_opinions"]),
            num_trials=int(document["num_trials"]),
            target_opinion=int(document["target_opinion"]),
            successes=np.asarray(document["successes"], dtype=bool),
            converged=np.asarray(document["converged"], dtype=bool),
            rounds=np.asarray(document["rounds"], dtype=np.int64),
            final_biases=np.asarray(document["final_biases"], dtype=float),
            final_opinion_counts=np.asarray(
                document["final_opinion_counts"], dtype=np.int64
            ),
            consensus_opinions=np.asarray(
                document["consensus_opinions"], dtype=np.int64
            ),
            bias_after_stage1=(
                np.asarray(optional_stage1, dtype=float)
                if optional_stage1 is not None
                else None
            ),
            stage1_rounds=(
                int(document["stage1_rounds"])
                if document.get("stage1_rounds") is not None
                else None
            ),
            trajectories=(
                np.asarray(trajectories, dtype=float)
                if trajectories is not None
                else None
            ),
            success_probability=(
                float(document["success_probability"])
                if document.get("success_probability") is not None
                else None
            ),
            convergence_probability=(
                float(document["convergence_probability"])
                if document.get("convergence_probability") is not None
                else None
            ),
            expected_rounds=(
                float(document["expected_rounds"])
                if document.get("expected_rounds") is not None
                else None
            ),
            expected_final_bias=(
                float(document["expected_final_bias"])
                if document.get("expected_final_bias") is not None
                else None
            ),
            expected_final_counts=(
                np.asarray(document["expected_final_counts"], dtype=float)
                if document.get("expected_final_counts") is not None
                else None
            ),
            expected_bias_after_stage1=(
                float(document["expected_bias_after_stage1"])
                if document.get("expected_bias_after_stage1") is not None
                else None
            ),
            analytic_method=(
                str(document["analytic_method"])
                if document.get("analytic_method") is not None
                else None
            ),
            state_space_size=(
                int(document["state_space_size"])
                if document.get("state_space_size") is not None
                else None
            ),
            provenance=dict(document.get("provenance", {})),
        )
