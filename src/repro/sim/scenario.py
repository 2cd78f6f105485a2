"""The declarative :class:`Scenario` — one description of one simulation.

A scenario names *what* to simulate (the workload: the paper's rumor or
plurality protocol, or one of the baseline opinion dynamics), *at what
scale* (population, opinions, trials), *through which channel* (the uniform
noise built from ``epsilon``, or any custom :class:`~repro.noise.matrix.
NoiseMatrix`) and *on which engine tier* (``sequential`` reference loop,
``batched`` ``(R, n)`` ensemble, ``counts`` ``(R, k)`` sufficient
statistics, or ``auto``).  It is plain data: every field is serializable,
``to_dict``/``from_dict`` round-trip exactly, and validation happens at
construction time with error messages that name the supported options.

:func:`repro.sim.facade.simulate` is the single entry point that turns a
scenario into a :class:`~repro.sim.result.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.bias import make_biased_distribution
from repro.core.plurality import PluralityInstance
from repro.core.state import CountsState, PopulationState, counts_from_shares
from repro.dynamics import DYNAMICS_RULES
from repro.faults.injection import split_faulty_population
from repro.faults.model import FaultModel, coerce_fault_model
from repro.network.pull_model import vote_table_is_tractable
from repro.noise.families import uniform_noise_matrix
from repro.noise.matrix import NoiseMatrix
from repro.utils.validation import ScenarioError

__all__ = [
    "Scenario",
    "ScenarioError",
    "WORKLOADS",
    "ENGINE_POLICIES",
    "TOPOLOGIES",
    "DELIVERY_PROCESSES",
]


#: Workloads a scenario can describe.
WORKLOADS = ("rumor", "plurality", "dynamics")

#: Engine policies a scenario can request (``"auto"`` resolves to a concrete
#: tier by population size; see :func:`repro.sim.facade.
#: resolve_trial_engine`).  ``"analytic"`` runs no sampling at all: the
#: exact Markov chain over opinion counts, for scenarios whose
#: ``C(n + k, k)`` states fit the state budget; :func:`~repro.sim.simulate`
#: refuses the rest with a :class:`ScenarioError` naming ``counts``.
ENGINE_POLICIES = ("sequential", "batched", "counts", "auto", "analytic")

#: Delivery processes of the protocol workloads on the per-node tiers:
#: process O (``"push"``), B (``"balls_bins"``) and P (``"poisson"``),
#: built by :func:`repro.network.delivery.make_delivery_engine`.
DELIVERY_PROCESSES = ("push", "balls_bins", "poisson")

#: Communication topologies (non-complete graphs run on the sequential
#: engine only — the batched/counts reformulations assume the complete
#: graph's exchangeability).
TOPOLOGIES = ("complete", "random_regular")

_PROTOCOL_WORKLOADS = ("rumor", "plurality")

#: The largest population a scenario accepts: every tier holds opinion
#: counts as int64.
_MAX_NUM_NODES = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Scenario:
    """A declarative simulation request.

    Attributes
    ----------
    workload:
        One of :data:`WORKLOADS`: ``"rumor"`` (Theorem 1: single source,
        two-stage protocol), ``"plurality"`` (Theorem 2: opinionated support
        with a plurality bias, two-stage protocol) or ``"dynamics"``
        (a baseline opinion dynamic named by ``rule``).
    num_nodes, num_opinions:
        Population size ``n`` and opinion-space size ``k``.
    epsilon:
        The noise parameter: builds the canonical uniform-noise matrix when
        ``noise`` is omitted, and always drives the protocol schedule.
    noise:
        Optional custom channel (any :class:`~repro.noise.matrix.
        NoiseMatrix` over ``num_opinions`` opinions); ``epsilon`` then only
        sets the schedule (use :func:`~repro.noise.majority_preserving.
        epsilon_for_delta` to derive it).
    engine:
        One of :data:`ENGINE_POLICIES`; ``"auto"`` switches from
        ``"batched"`` to ``"counts"`` at ``counts_threshold`` nodes.
    num_trials:
        Number of independent trials ``R``.
    seed:
        Base seed (``None`` or a non-negative int; numpy integers are
        stored as ``int``); the tier's child streams derive from it (one
        per trial on the per-node tiers, one per run on the counts tier),
        so a scenario is bitwise reproducible per engine tier.
    counts_threshold:
        The ``"auto"`` switch-over population size (only meaningful with
        ``engine="auto"``; ``None`` uses the process-wide default).
    correct_opinion:
        The rumor source's opinion (``workload="rumor"`` only).
    support_size:
        Number of initially opinionated nodes for ``plurality`` /
        ``dynamics`` (``None`` = every node starts opinionated).
    bias:
        Plurality bias within the support (the Theorem-2 convention for
        ``plurality``; the initial distribution bias for ``dynamics``).
    shares:
        Optional explicit opinion shares within the support (overrides
        ``bias``); must have one entry per opinion and sum to 1.
    rule:
        The baseline update rule (one of
        :data:`~repro.dynamics.DYNAMICS_RULES`; ``workload="dynamics"``
        only).
    sample_size:
        Observations per round for the ``"h-majority"`` rule.
    max_rounds:
        Round budget per trial (``dynamics`` only; the protocol workloads
        run their schedule).
    stop_at_consensus:
        Stop a dynamics trial at consensus (``dynamics`` only).
    process:
        Delivery process for the protocol workloads (one of
        :data:`DELIVERY_PROCESSES`); the counts engine always uses its
        Claim-1/Poissonized delivery (process P).
    round_scale:
        Multiplier for the protocol schedule's phase lengths.
    sampling_method, use_full_multiset:
        Stage-2 ablation knobs (batched/sequential engines only).
    topology, degree:
        Communication topology (sequential engine, protocol workloads
        only); ``degree`` is required for ``"random_regular"``.
    record_trajectories:
        Record per-round (dynamics) / per-phase (protocol) bias
        trajectories on the result.
    """

    workload: str
    num_nodes: int = 2000
    num_opinions: int = 3
    epsilon: float = 0.3
    noise: Optional[NoiseMatrix] = None
    engine: str = "auto"
    num_trials: int = 1
    seed: Optional[int] = 0
    counts_threshold: Optional[int] = None
    correct_opinion: int = 1
    support_size: Optional[int] = None
    bias: float = 0.2
    shares: Optional[Tuple[float, ...]] = None
    rule: Optional[str] = None
    sample_size: Optional[int] = None
    max_rounds: int = 300
    stop_at_consensus: bool = True
    process: str = "push"
    round_scale: float = 1.0
    sampling_method: str = "without_replacement"
    use_full_multiset: bool = False
    topology: str = "complete"
    degree: Optional[int] = None
    record_trajectories: bool = True
    faults: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        if self.shares is not None and not isinstance(self.shares, tuple):
            object.__setattr__(self, "shares", tuple(self.shares))
        if isinstance(self.seed, np.integer):
            object.__setattr__(self, "seed", int(self.seed))
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            try:
                object.__setattr__(
                    self, "faults", coerce_fault_model(self.faults)
                )
            except ValueError as error:
                raise ScenarioError(str(error)) from error
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise ``ValueError`` (naming the supported options) if invalid."""
        if self.workload not in WORKLOADS:
            raise ScenarioError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if self.engine not in ENGINE_POLICIES:
            raise ScenarioError(
                f"engine must be one of {ENGINE_POLICIES}, got {self.engine!r}"
            )
        if self.process not in DELIVERY_PROCESSES:
            raise ScenarioError(
                f"process must be one of {DELIVERY_PROCESSES}, "
                f"got {self.process!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ScenarioError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        for name in ("num_nodes", "num_opinions", "num_trials", "max_rounds"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ScenarioError(f"{name} must be a positive int, got {value!r}")
        if self.num_nodes > _MAX_NUM_NODES:
            raise ScenarioError(
                f"num_nodes must be at most {_MAX_NUM_NODES} (2^63 - 1), the "
                f"int64 count limit of every tier; got {self.num_nodes}"
            )
        if self.seed is not None and (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, (int, np.integer))
            or self.seed < 0
        ):
            raise ScenarioError(
                f"seed must be None or a non-negative int, got {self.seed!r}"
            )
        if not (0.0 < float(self.epsilon)):
            raise ScenarioError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (0.0 <= float(self.bias) < 1.0):
            raise ScenarioError(f"bias must be in [0, 1), got {self.bias!r}")
        if self.noise is not None:
            if not isinstance(self.noise, NoiseMatrix):
                raise ScenarioError(
                    "noise must be a NoiseMatrix (or None for the uniform "
                    f"channel), got {type(self.noise).__name__}"
                )
            if self.noise.num_opinions != self.num_opinions:
                raise ScenarioError(
                    f"noise matrix has {self.noise.num_opinions} opinions "
                    f"but the scenario asks for {self.num_opinions}"
                )
        if self.counts_threshold is not None:
            if self.engine != "auto":
                raise ScenarioError(
                    "counts_threshold only applies to engine='auto' "
                    f"(got engine={self.engine!r})"
                )
            if self.counts_threshold < 1:
                raise ScenarioError(
                    f"counts_threshold must be >= 1, got {self.counts_threshold}"
                )
        if not (1 <= self.correct_opinion <= self.num_opinions):
            raise ScenarioError(
                f"correct_opinion must be in [1, {self.num_opinions}], "
                f"got {self.correct_opinion}"
            )
        self._validate_workload_knobs()
        self._validate_engine_knobs()
        self._validate_topology_knobs()
        self._validate_fault_knobs()

    def _validate_workload_knobs(self) -> None:
        if self.workload == "dynamics":
            if self.rule is None:
                raise ScenarioError(
                    "workload 'dynamics' requires rule, one of "
                    f"{DYNAMICS_RULES}"
                )
            if self.rule not in DYNAMICS_RULES:
                raise ScenarioError(
                    f"rule must be one of {DYNAMICS_RULES}, got {self.rule!r}"
                )
            if self.rule == "h-majority" and self.sample_size is None:
                raise ScenarioError("rule 'h-majority' requires sample_size")
            if self.rule != "h-majority" and self.sample_size is not None:
                raise ScenarioError(
                    f"rule {self.rule!r} does not take a sample_size "
                    "(use 'h-majority' for a custom h)"
                )
            if self.rule == "approximate-consensus" and not (
                0.0 < float(self.epsilon) < 1.0
            ):
                raise ScenarioError(
                    "rule 'approximate-consensus' reuses epsilon as the "
                    "agreement precision target, which must be in (0, 1); "
                    f"got {self.epsilon!r}"
                )
            # Protocol-only knobs are meaningless for the dynamics
            # workload; reject them instead of silently dropping them.
            if self.process != "push":
                raise ScenarioError(
                    "process only applies to the protocol workloads "
                    "('rumor', 'plurality'); the dynamics workload runs on "
                    "the noisy pull substrate"
                )
            if self.round_scale != 1.0:
                raise ScenarioError(
                    "round_scale only applies to the protocol workloads "
                    "('rumor', 'plurality')"
                )
            if (
                self.sampling_method != "without_replacement"
                or self.use_full_multiset
            ):
                raise ScenarioError(
                    "the Stage-2 sampling ablations (sampling_method, "
                    "use_full_multiset) only apply to the protocol "
                    "workloads ('rumor', 'plurality')"
                )
        else:
            if self.rule is not None:
                raise ScenarioError(
                    "rule only applies to workload 'dynamics' "
                    f"(got workload={self.workload!r})"
                )
            if self.sample_size is not None:
                raise ScenarioError(
                    "sample_size only applies to workload 'dynamics' with "
                    "rule 'h-majority'"
                )
            # Dynamics-only knobs are meaningless for the protocol
            # workloads, whose round budget is the schedule itself.
            if self.max_rounds != 300:
                raise ScenarioError(
                    "max_rounds only applies to workload 'dynamics' (the "
                    "protocol workloads run their schedule; use round_scale "
                    "to stretch it)"
                )
            if not self.stop_at_consensus:
                raise ScenarioError(
                    "stop_at_consensus only applies to workload 'dynamics'"
                )
        if self.workload == "rumor":
            if self.support_size is not None:
                raise ScenarioError(
                    "support_size only applies to workloads 'plurality' and "
                    "'dynamics' (the rumor workload always starts from one "
                    "source node)"
                )
            if self.shares is not None:
                raise ScenarioError(
                    "shares only applies to workloads 'plurality' and "
                    "'dynamics'"
                )
        if self.support_size is not None and not (
            1 <= self.support_size <= self.num_nodes
        ):
            raise ScenarioError(
                f"support_size must be in [1, {self.num_nodes}], "
                f"got {self.support_size}"
            )
        if self.shares is not None:
            if len(self.shares) != self.num_opinions:
                raise ScenarioError(
                    f"shares must have one entry per opinion "
                    f"({self.num_opinions}), got {len(self.shares)}"
                )
            total = float(sum(self.shares))
            if any(share < 0 for share in self.shares) or abs(total - 1.0) > 1e-6:
                raise ScenarioError(
                    "shares must be non-negative and sum to 1, "
                    f"got {self.shares}"
                )

    def _validate_engine_knobs(self) -> None:
        has_ablations = (
            self.sampling_method != "without_replacement"
            or self.use_full_multiset
        )
        if has_ablations and self.engine in ("counts", "auto", "analytic"):
            raise ScenarioError(
                "the Stage-2 sampling ablations (sampling_method, "
                "use_full_multiset) are only supported by engines "
                "('batched', 'sequential'); engine "
                f"{self.engine!r} cannot serve them"
            )
        if (
            self.engine in ("counts", "analytic")
            and self.workload == "dynamics"
            and self.rule == "h-majority"
            and self.sample_size is not None
            and not vote_table_is_tractable(self.sample_size, self.num_opinions)
        ):
            raise ScenarioError(
                f"sample_size {self.sample_size} with {self.num_opinions} "
                f"opinions exceeds the {self.engine} engine's closed-form "
                "maj() table budget; use one of the engines "
                "('batched', 'sequential')"
            )
        if self.engine == "analytic" and self.rule == "approximate-consensus":
            raise ScenarioError(
                "rule 'approximate-consensus' is phase-tagged and admits no "
                "counts-simplex analytic kernel; use one of the engines "
                "('sequential', 'batched', 'counts', 'auto')"
            )

    def _validate_topology_knobs(self) -> None:
        if self.topology == "complete":
            if self.degree is not None:
                raise ScenarioError(
                    "degree only applies to topology 'random_regular'"
                )
            return
        if self.workload == "dynamics":
            raise ScenarioError(
                "non-complete topologies are only supported by the protocol "
                "workloads ('rumor', 'plurality')"
            )
        if self.engine != "sequential":
            raise ScenarioError(
                f"topology {self.topology!r} requires engine='sequential' "
                "(the batched and counts reformulations assume the "
                "complete graph)"
            )
        if self.topology == "random_regular" and self.degree is None:
            raise ScenarioError("topology 'random_regular' requires degree")

    def _validate_fault_knobs(self) -> None:
        if self.faults is None:
            return
        try:
            self.faults.validate()
            self.faults.faulty_count(self.num_nodes)
        except ValueError as error:
            raise ScenarioError(str(error)) from error
        if self.workload not in _PROTOCOL_WORKLOADS:
            raise ScenarioError(
                "faults only apply to the protocol workloads "
                f"{_PROTOCOL_WORKLOADS} (got workload={self.workload!r}); "
                "for Byzantine-tolerant dynamics use "
                "rule='approximate-consensus', whose f parameter models "
                "faulty nodes natively"
            )
        if self.topology != "complete":
            raise ScenarioError(
                "faults require topology 'complete' (got "
                f"{self.topology!r}); the fault injection relies on the "
                "complete graph's balls-into-bins delivery reduction"
            )
        if self.engine == "analytic":
            raise ScenarioError(
                "faults are not supported by engine 'analytic' (no exact "
                "chain is implemented for faulted runs); "
                "use one of the sampling engines "
                "('sequential', 'batched', 'counts', 'auto')"
            )
        if self.process != "push":
            raise ScenarioError(
                "faults replace the delivery engine with the fault-aware "
                "balls-into-bins process, so process must stay 'push' "
                f"(got {self.process!r})"
            )

    # ------------------------------------------------------------------ #
    # Derived objects
    # ------------------------------------------------------------------ #

    def build_noise(self) -> NoiseMatrix:
        """The channel: the explicit matrix, or the canonical uniform one."""
        if self.noise is not None:
            return self.noise
        return uniform_noise_matrix(self.num_opinions, self.epsilon)

    def support_shares(self) -> Tuple[float, ...]:
        """Opinion shares within the support (explicit, or bias-derived)."""
        if self.shares is not None:
            return self.shares
        return tuple(
            make_biased_distribution(self.num_opinions, self.bias, 1)
        )

    def plurality_instance(self) -> PluralityInstance:
        """The Theorem-2 instance this scenario's support describes."""
        support = (
            self.support_size if self.support_size is not None else self.num_nodes
        )
        return PluralityInstance.from_support_fractions(
            self.num_nodes, support, self.support_shares()
        )

    def initial_state(self) -> PopulationState:
        """Materialize the workload's initial population, deterministically.

        The placement randomness (which node gets which opinion — irrelevant
        on the complete graph, load-bearing on sparse topologies) derives
        from ``seed`` alone, independently of the per-trial streams.
        """
        if self.workload == "rumor":
            return PopulationState.single_source(
                self.num_nodes, self.num_opinions, self.correct_opinion
            )
        if self.workload == "plurality":
            return self.plurality_instance().initial_state(
                random_state=self.seed
            )
        # dynamics: a fully opinionated bias-shaped population by default
        # (the same construction as workloads.biased_population),
        # or a partially opinionated support when support_size/shares say so.
        if self.support_size is None and self.shares is None:
            distribution = make_biased_distribution(
                self.num_opinions, self.bias, 1
            )
            return PopulationState.from_fractions(
                self.num_nodes, distribution, random_state=self.seed
            )
        return self.plurality_instance().initial_state(random_state=self.seed)

    def initial_counts_state(self) -> CountsState:
        """The workload's initial condition as ``O(k)`` sufficient statistics.

        The counts tier never materializes per-node opinions, so its
        runners start from this instead of :meth:`initial_state` — which is
        what keeps ``simulate(engine="counts")`` usable at populations far
        beyond available memory.  The counts are *exactly* those of the
        per-node construction (same rounding, same slack placement), so a
        counts run from either entry state consumes identical draws.
        """
        if self.workload == "rumor":
            return CountsState.single_source(
                self.num_nodes, self.num_opinions, self.correct_opinion
            )
        if self.workload == "dynamics" and (
            self.support_size is None and self.shares is None
        ):
            # PopulationState.from_fractions' count derivation (floor, then
            # the largest-fraction opinion absorbs the slack), conserving n.
            fractions = np.asarray(
                make_biased_distribution(self.num_opinions, self.bias, 1),
                dtype=float,
            )
            return CountsState(
                counts_from_shares(fractions, self.num_nodes), self.num_nodes
            )
        instance = self.plurality_instance()
        counts = np.zeros(self.num_opinions, dtype=np.int64)
        for opinion, count in instance.opinion_counts.items():
            counts[opinion - 1] = count
        return CountsState(counts, self.num_nodes)

    def target_opinion(self) -> int:
        """The opinion every trial tracks (source's / plurality opinion)."""
        if self.workload == "rumor":
            return self.correct_opinion
        if self.support_size is None and self.shares is None and (
            self.workload == "dynamics"
        ):
            return 1  # make_biased_distribution majority_opinion
        return self.plurality_instance().plurality_opinion()

    # ------------------------------------------------------------------ #
    # Fault split
    # ------------------------------------------------------------------ #

    def faulty_count(self) -> int:
        """Head-count of faulty nodes (0 when no faults are declared)."""
        if self.faults is None:
            return 0
        return self.faults.faulty_count(self.num_nodes)

    def honest_nodes(self) -> int:
        """Number of honest nodes ``n_h = n - m``."""
        return self.num_nodes - self.faulty_count()

    def fault_split(self) -> Tuple[CountsState, np.ndarray]:
        """Initial honest state and the frozen faulty opinion histogram.

        Deterministic (largest-remainder proportional over the full
        occupancy vector, undecided pool included); the rumor source is
        always honest.  The honest part comes back as a
        :class:`CountsState` over ``n_h`` nodes — the per-node runners
        materialize opinions from it with the placement seed.
        """
        if self.faults is None:
            raise ScenarioError("fault_split() requires a faults model")
        full = self.initial_counts_state()
        num_faulty = self.faulty_count()
        protected = self.correct_opinion if self.workload == "rumor" else None
        honest_counts, faulty_histogram = split_faulty_population(
            full.counts, self.num_nodes, num_faulty, protected
        )
        honest = CountsState(honest_counts, self.num_nodes - num_faulty)
        return honest, faulty_histogram

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """The scenario as plain JSON-serializable data (exact round trip)."""
        document: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "noise":
                value = (
                    None
                    if value is None
                    else {
                        "name": value.name,
                        "probabilities": value.matrix.tolist(),
                    }
                )
            elif spec.name == "shares" and value is not None:
                value = [float(share) for share in value]
            elif spec.name == "faults" and value is not None:
                value = value.to_dict()
            document[spec.name] = value
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        if not isinstance(document, Mapping):
            raise TypeError(
                f"document must be a mapping, got {type(document).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario fields: {unknown}; known fields: "
                f"{sorted(known)}"
            )
        values = dict(document)
        noise = values.get("noise")
        if noise is not None and not isinstance(noise, NoiseMatrix):
            values["noise"] = NoiseMatrix(
                noise["probabilities"], name=noise.get("name")
            )
        faults = values.get("faults")
        if faults is not None and not isinstance(faults, FaultModel):
            try:
                values["faults"] = FaultModel.from_dict(faults)
            except ValueError as error:
                raise ScenarioError(str(error)) from error
        return cls(**values)
