"""``simulate(Scenario(...)) -> SimulationResult`` — the one entry point.

The facade resolves the scenario's engine policy to a concrete tier, looks
up the ``(workload, engine)`` runner in the
:data:`~repro.sim.engines.ENGINE_REGISTRY`, executes it, and stamps the
result with provenance (resolved engine, seed, facade code version, wall
time, the scenario itself).

This module imports at module level only what a counts run executes.
The analytic tier and the per-node fault and topology engines load inside
the runners that use them, on their first call.

Every runner derives its randomness from the scenario's seed alone (one
stream per trial on the per-node tiers, one stream for the whole run on
the counts tier), so under a fixed seed a scenario is bitwise reproducible
per engine tier (``tests/core/test_counts_golden.py`` pins per-seed
outputs of every sampling tier).

The ``auto`` policy resolves through :func:`resolve_trial_engine`, the one
owner of the batched/counts switch-over population size
(:data:`DEFAULT_COUNTS_THRESHOLD`, overridable process-wide with
:func:`set_default_counts_threshold`).
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.core.protocol import (
    CountsProtocolTask,
    EnsembleProtocol,
    TwoStageProtocol,
    run_heterogeneous_counts_protocol,
)
from repro.core.state import PopulationState
from repro.faults.injection import FaultedPhaseSampler
from repro.network.pull_model import vote_law_cache_info, vote_table_is_tractable
from repro.noise.matrix import NoiseMatrix
from repro.sim.engines import ENGINE_REGISTRY, build_dynamics
from repro.sim.result import SimulationResult
from repro.sim.scenario import ENGINE_POLICIES, Scenario, ScenarioError
from repro.utils.rng import RandomState, as_trial_generators, spawn_generators

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.schedule import ProtocolSchedule
    from repro.network.topology import GraphPushModel

__all__ = [
    "DEFAULT_COUNTS_THRESHOLD",
    "DRAW_ORDER_VERSION",
    "resolve_trial_engine",
    "set_default_counts_threshold",
    "simulate",
    "sim_code_version",
]

#: The version of the engines' draw order and law values.  Bump it in every
#: change that moves a seeded result (an entry of
#: ``tests/core/counts_golden.json``, which records it): it is mixed into
#: :func:`sim_code_version`, so sweep points and experiment tables stored
#: under the old draws miss instead of being served.  1: the counts
#: dynamics draw a row with no undecided node as one group.  2: a counts
#: grid point draws every row from one stream, rows in order within each
#: draw step, instead of one spawned stream per trial.
DRAW_ORDER_VERSION = 2

_code_version: Optional[str] = None

#: The source files :func:`sim_code_version` hashes, relative to the
#: ``repro`` package directory, in hashing order.
_VERSIONED_SOURCES = (
    "sim/scenario.py", "sim/engines.py", "sim/result.py", "sim/facade.py",
    "sim/sweep.py",
    "analytic/simplex.py", "analytic/verify.py",
    "dynamics/analytic.py", "core/analytic.py",
    "faults/model.py", "faults/injection.py", "faults/delivery.py",
)

#: Population size at which ``engine="auto"`` switches from the batched
#: ``(R, n)`` tier to the counts tier.  At ``n = 10^5`` the counts tier is
#: already >= 20x faster (see ``benchmarks/bench_counts_engine.py``); below
#: ~10^4 either tier finishes in milliseconds and the batched one stays the
#: default because it also supports the ablation knobs.
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
    """The concrete engine tier for ``trial_engine`` at population size ``n``.

    Concrete tier names pass through unchanged (after validation against
    :data:`~repro.sim.scenario.ENGINE_POLICIES`); ``"auto"`` resolves to
    ``"counts"`` when ``num_nodes`` is at least ``counts_threshold``
    (default: the active threshold, normally
    :data:`DEFAULT_COUNTS_THRESHOLD`) and to ``"batched"`` otherwise.

    The boundary is inclusive on the counts side: at *exactly*
    ``num_nodes == counts_threshold`` the counts tier wins (``>=``, not
    ``>``).  The threshold is the smallest population the n-independent
    tier should serve, so ``simulate()``, the CLI and the experiment
    configs all see ``auto(n=threshold) == "counts"``.

    ``allow_analytic=True`` short-circuits ``"auto"`` to ``"analytic"``:
    the caller asserts the scenario is *exactly tractable* (the count
    simplex fits the analytic state budget, plus any closed-form vote
    tables the workload needs), in which case the exact answer beats any
    amount of sampling.  Only :func:`simulate` sets it; experiments that
    read per-trial outcomes resolve ``"auto"`` without it, so for them
    ``"auto"`` always means batched or counts.
    """
    if trial_engine not in ENGINE_POLICIES:
        raise ValueError(
            f"trial_engine must be one of {ENGINE_POLICIES}, "
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


def sim_code_version() -> str:
    """A short fingerprint of the facade's code, recorded in provenance.

    Hashes the source files of the sim layer's own modules (scenario,
    engines, result, facade, sweep), the analytic tier and the fault
    subsystem (:data:`_VERSIONED_SOURCES`), read as bytes, then
    :data:`DRAW_ORDER_VERSION`.  The files are found from this package's
    directory, so hashing imports none of them.  The engine tiers
    underneath are not hashed: the golden and engine-agreement test-suites
    cover them, and a change there that moves a seeded result bumps the
    version, so the stores key on it.
    """
    global _code_version
    if _code_version is None:
        package = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for source in _VERSIONED_SOURCES:
            try:
                digest.update((package / source).read_bytes())
            except OSError:  # pragma: no cover - frozen builds
                pass
        digest.update(f"draw-order {DRAW_ORDER_VERSION}".encode())
        _code_version = digest.hexdigest()[:16]
    return _code_version


class _Resolution(NamedTuple):
    """The concrete tier a scenario runs on.

    ``degraded_reason`` is ``None`` when the policy was served as asked.
    ``schedule`` is the schedule an analytic protocol point was checked on,
    which its runner then runs, so the point builds it once.
    """

    engine: str
    degraded_reason: Optional[str] = None
    schedule: Optional["ProtocolSchedule"] = None


def _exact_resolution(scenario: Scenario) -> Optional[_Resolution]:
    """The analytic resolution of ``scenario`` when that tier can serve it
    *exactly*, else ``None``.

    Exact when the full count-simplex Markov chain fits the analytic state
    budget (and, for the protocol workloads, every Stage-2 vote table is
    closed-form) — the regime where ``auto`` should prefer the exact
    answer over any sampled one.
    """
    if scenario.workload == "dynamics":
        from repro.dynamics.analytic import exact_dynamics_is_tractable

        if exact_dynamics_is_tractable(
            scenario.rule,
            scenario.num_nodes,
            scenario.num_opinions,
            sample_size=scenario.sample_size,
        ):
            return _Resolution("analytic")
        return None
    from repro.core.analytic import exact_protocol_schedule

    try:
        schedule = exact_protocol_schedule(
            scenario.num_nodes,
            scenario.num_opinions,
            scenario.epsilon,
            initial_opinionated=int(scenario.initial_counts_state().counts.sum()),
            round_scale=scenario.round_scale,
        )
    except ValueError:
        return None
    return _Resolution("analytic", schedule=schedule)


def _analytic_refusal(scenario: Scenario) -> str:
    """Why ``engine="analytic"`` cannot answer ``scenario`` exactly: its
    size against the state and ``maj()`` table budgets, and the tier that
    samples it instead."""
    from repro.analytic.simplex import DEFAULT_STATE_BUDGET, state_space_size
    from repro.core.schedule import ProtocolSchedule

    num_nodes, num_opinions = scenario.num_nodes, scenario.num_opinions
    facts = [f"{state_space_size(num_nodes, num_opinions)} count states"]
    if scenario.workload != "dynamics":
        schedule = ProtocolSchedule.for_population(
            num_nodes, float(scenario.epsilon), round_scale=scenario.round_scale
        )
        largest = max(int(size) for size in schedule.stage2.sample_sizes)
        fits = vote_table_is_tractable(largest, num_opinions)
        facts.append(
            f"a largest Stage-2 sample size L = {largest}, "
            f"{'within' if fits else 'past'} the table budget"
        )
    return (
        f"engine='analytic' computes exact answers only, which needs at most "
        f"{DEFAULT_STATE_BUDGET} count states C(n + k, k) and a closed-form "
        f"maj() table for every vote sample size; {scenario.workload} at "
        f"n = {num_nodes}, k = {num_opinions} has {' and '.join(facts)}; use "
        "engine='counts' to sample it"
    )


def _resolve_engine(scenario: Scenario) -> _Resolution:
    """The concrete tier for the scenario's engine policy.

    ``auto`` prefers the analytic tier whenever the scenario is exactly
    tractable (tiny ``n * k``): the exact chain answers in one kernel
    evolution with zero sampling noise, which no trial count can beat.
    Faulted scenarios never resolve analytic — no exact chain covers
    them.  An explicit ``engine="analytic"`` past the exact budgets raises
    a :class:`ScenarioError` that names ``engine="counts"``.  Every point
    is resolved once: :func:`simulate` and
    :func:`~repro.sim.sweep.simulate_sweep` hand the resolution to
    :func:`_simulate_resolved`.
    """
    if scenario.engine == "analytic":
        exact = _exact_resolution(scenario)
        if exact is None:
            raise ScenarioError(_analytic_refusal(scenario))
        return exact
    if scenario.engine != "auto":
        return _Resolution(scenario.engine)
    exact = _exact_resolution(scenario) if scenario.faults is None else None
    engine = resolve_trial_engine(
        "auto",
        scenario.num_nodes,
        scenario.counts_threshold,
        allow_analytic=exact is not None,
    )
    if exact is not None:
        return exact
    if (
        engine == "counts"
        and scenario.rule == "h-majority"
        and scenario.sample_size is not None
    ):
        # The counts h-majority tier needs a tractable closed-form maj()
        # table; 'auto' degrades to the batched tier instead of failing
        # (an explicit engine='counts' request raises at validation).
        if not vote_table_is_tractable(
            scenario.sample_size, scenario.num_opinions
        ):
            return _Resolution(
                "batched",
                f"h-majority sample_size {scenario.sample_size} with "
                f"{scenario.num_opinions} opinions exceeds the closed-form "
                "maj() table budget; degraded counts -> batched",
            )
    return _Resolution(engine)


def simulate(scenario: Scenario) -> SimulationResult:
    """Execute ``scenario`` on the engine tier its policy resolves to.

    The single public entry point of the simulation layer: one declarative
    :class:`~repro.sim.scenario.Scenario` in, one
    :class:`~repro.sim.result.SimulationResult` out, for every workload
    (rumor / plurality / dynamics) and every engine tier (sequential /
    batched / counts).  Provenance on the result records the resolved
    engine, the seed, the facade code version, the wall time and the full
    scenario dictionary, so any stored result is self-describing; a
    sampled protocol run adds the delivery process it simulated
    (``delivery_process``), and a counts protocol run the vote path of
    each Stage-2 phase (``stage2_vote_paths``).  Every counts result names
    its draw order (``rng_draw_order``).
    """
    scenario.validate()
    return _simulate_resolved(scenario, _resolve_engine(scenario))


def _simulate_resolved(
    scenario: Scenario, resolution: _Resolution
) -> SimulationResult:
    """:func:`simulate` of a validated ``scenario`` on the tier its
    :func:`_resolve_engine` call named (a sweep's serial points come here
    with the grid's resolution)."""
    engine = resolution.engine
    noise = scenario.build_noise()
    runner = ENGINE_REGISTRY.get(scenario.workload, engine)
    cache_before = vote_law_cache_info() if engine == "counts" else None
    started = time.perf_counter()
    if resolution.schedule is None:
        result = runner(scenario, noise, engine)
    else:
        result = runner(scenario, noise, engine, schedule=resolution.schedule)
    _stamp_provenance(
        result, scenario, engine, time.perf_counter() - started
    )
    if resolution.degraded_reason is not None:
        result.provenance["engine_degraded_reason"] = resolution.degraded_reason
    if cache_before is not None:
        result.provenance["vote_law_cache"] = _cache_delta(cache_before)
    return result


def _delivery_process(scenario: Scenario, engine: str) -> Optional[str]:
    """The delivery process a protocol run of ``scenario`` on ``engine``
    simulates, or ``None`` for the dynamics and the analytic tier.

    The counts tier always delivers under process P (``"poisson"``),
    whatever ``scenario.process`` says; a faulted per-node run throws its
    balls through the balls-into-bins engine (``"balls_bins"``), and a run
    on a non-complete topology pushes along the graph's edges
    (``"push"``); any other per-node run uses ``scenario.process``.
    """
    if scenario.workload == "dynamics" or engine == "analytic":
        return None
    if engine == "counts":
        return "poisson"
    if scenario.faults is not None:
        return "balls_bins"
    if scenario.topology != "complete":
        return "push"
    return scenario.process


def _stamp_provenance(
    result: SimulationResult,
    scenario: Scenario,
    engine: str,
    elapsed: float,
    draw_order: str = "per-point",
) -> None:
    """Stamp the provenance every result of ``scenario`` on ``engine``
    carries, before the entries the engine's adapter set.

    :func:`simulate` and the fused points of
    :func:`~repro.sim.sweep.simulate_sweep` both stamp through here; a
    fused point's ``elapsed`` is its batch's time.  A counts result names
    its ``draw_order`` as ``rng_draw_order``: ``"per-point"`` (one stream
    per grid point, see :func:`~repro.utils.rng.point_generators`) unless
    a sweep fused it under ``draw_mode="batched"``.
    """
    process = _delivery_process(scenario, engine)
    result.provenance = {
        "workload": scenario.workload,
        "engine": engine,
        "engine_policy": scenario.engine,
        "seed": scenario.seed,
        "num_trials": scenario.num_trials,
        "code_version": sim_code_version(),
        "wall_time_seconds": round(elapsed, 6),
        "scenario": scenario.to_dict(),
        **({} if process is None else {"delivery_process": process}),
        **({"rng_draw_order": draw_order} if engine == "counts" else {}),
        **result.provenance,
    }


def _cache_delta(before: dict) -> dict:
    """This run's ``maj()``-cache activity (counter deltas + end sizes).

    Hit/miss counters are reported as the difference across the run, so a
    stored provenance dictionary answers "did *this* simulation's phases
    share laws?" rather than mirroring process-lifetime totals; ``*_entries``
    gauges stay absolute.
    """
    after = vote_law_cache_info()
    return {
        key: value - (0 if key.endswith("_entries") else before[key])
        for key, value in after.items()
    }


# --------------------------------------------------------------------- #
# Protocol workloads (rumor & plurality share the two-stage machinery)
# --------------------------------------------------------------------- #


def _build_graph_engine(
    scenario: Scenario, noise: NoiseMatrix, random_state: RandomState
) -> GraphPushModel:
    from repro.network.topology import GraphPushModel, standard_topology

    graph = standard_topology(
        scenario.topology,
        scenario.num_nodes,
        random_state=scenario.seed,
        **({"degree": scenario.degree} if scenario.degree is not None else {}),
    )
    return GraphPushModel(graph, noise, random_state=random_state)


def _fault_sampler(scenario: Scenario) -> FaultedPhaseSampler:
    """A fresh phase sampler for one protocol run (owns the round counter)."""
    _, faulty_histogram = scenario.fault_split()
    return FaultedPhaseSampler(
        scenario.faults,
        scenario.faulty_count(),
        faulty_histogram,
        scenario.num_opinions,
    )


def _honest_initial_state(scenario: Scenario) -> PopulationState:
    """The per-node initial state of the honest ``n_h`` sub-population.

    The rumor source stays node 0 of the honest population; plurality
    supports materialize from the deterministic fault split with the same
    placement-seed discipline as :meth:`Scenario.initial_state`.
    """
    honest, _ = scenario.fault_split()
    if scenario.workload == "rumor":
        return PopulationState.single_source(
            honest.num_nodes, scenario.num_opinions, scenario.correct_opinion
        )
    opinion_counts = {
        opinion + 1: int(count)
        for opinion, count in enumerate(honest.counts)
        if count
    }
    return PopulationState.from_counts(
        honest.num_nodes,
        opinion_counts,
        scenario.num_opinions,
        random_state=scenario.seed,
    )


@ENGINE_REGISTRY.register("rumor", "sequential")
@ENGINE_REGISTRY.register("plurality", "sequential")
def _protocol_sequential(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The reference loop: one :class:`TwoStageProtocol` run per trial.

    Trial ``r`` consumes randomness from its own spawned child generator.

    Faulted scenarios track only the honest ``n_h`` nodes and route every
    phase through a per-trial :class:`FaultedDeliveryEngine` (fresh crash
    counter per trial) over the full ``n`` bins.
    """
    from repro.faults.delivery import FaultedDeliveryEngine

    faulted = scenario.faults is not None
    initial_state = (
        _honest_initial_state(scenario) if faulted else scenario.initial_state()
    )
    num_nodes = initial_state.num_nodes
    target = scenario.target_opinion()
    results = []
    for generator in spawn_generators(scenario.num_trials, scenario.seed):
        if faulted:
            delivery = FaultedDeliveryEngine(
                num_nodes,
                scenario.num_nodes,
                noise,
                _fault_sampler(scenario),
                random_state=generator,
            )
        elif scenario.topology != "complete":
            delivery = _build_graph_engine(scenario, noise, generator)
        else:
            delivery = None
        protocol = TwoStageProtocol(
            num_nodes,
            noise,
            epsilon=scenario.epsilon,
            process=scenario.process,
            engine=delivery,
            random_state=generator,
            round_scale=scenario.round_scale,
            sampling_method=scenario.sampling_method,
            use_full_multiset=scenario.use_full_multiset,
        )
        results.append(protocol.run(initial_state, target_opinion=target))
    return SimulationResult.from_protocol_results(
        results, workload=scenario.workload, engine=engine
    )


@ENGINE_REGISTRY.register("rumor", "batched")
@ENGINE_REGISTRY.register("plurality", "batched")
def _protocol_batched(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The vectorized ``(R, n)`` tier: one :class:`EnsembleProtocol` batch.

    Faulted scenarios share one :class:`FaultedDeliveryEngine` across the
    batch — the phase schedule (and hence the crash-round clock) is common
    to every trial, while each trial's ball draws stay on its own stream.
    """
    from repro.faults.delivery import FaultedDeliveryEngine

    faulted = scenario.faults is not None
    initial_state = (
        _honest_initial_state(scenario) if faulted else scenario.initial_state()
    )
    delivery = (
        FaultedDeliveryEngine(
            initial_state.num_nodes,
            scenario.num_nodes,
            noise,
            _fault_sampler(scenario),
        )
        if faulted
        else None
    )
    protocol = EnsembleProtocol(
        initial_state.num_nodes,
        noise,
        epsilon=scenario.epsilon,
        process=scenario.process,
        engine=delivery,
        random_state=scenario.seed,
        round_scale=scenario.round_scale,
        sampling_method=scenario.sampling_method,
        use_full_multiset=scenario.use_full_multiset,
    )
    result = protocol.run(
        initial_state,
        scenario.num_trials,
        target_opinion=scenario.target_opinion(),
    )
    return SimulationResult.from_ensemble_result(
        result, workload=scenario.workload, engine=engine
    )


def _counts_protocol_task(
    scenario: Scenario, noise: NoiseMatrix
) -> CountsProtocolTask:
    """The counts-tier task of one protocol scenario.

    The single scenario-to-task translation behind both ``simulate()``'s
    counts runner (a one-task batch) and ``simulate_sweep``'s fused
    batches, so a sweep point is bitwise its serial run by construction.
    The entry state is counts-native (same opinion counts as the per-node
    construction, but ``O(k)`` — ``n`` never gets an array axis on this
    tier).  Faulted scenarios track the honest ``n_h`` nodes only and hand
    the batch a fresh phase sampler; the Poissonized throw then spans all
    ``n`` bins, faulty mailboxes included.
    """
    if scenario.faults is None:
        initial_counts = scenario.initial_counts_state()
        sampler = None
    else:
        initial_counts, _ = scenario.fault_split()
        sampler = _fault_sampler(scenario)
    return CountsProtocolTask(
        num_nodes=initial_counts.num_nodes,
        noise=noise,
        initial_state=initial_counts,
        num_trials=scenario.num_trials,
        epsilon=scenario.epsilon,
        target_opinion=scenario.target_opinion(),
        random_state=scenario.seed,
        round_scale=scenario.round_scale,
        fault_sampler=sampler,
    )


@ENGINE_REGISTRY.register("rumor", "counts")
@ENGINE_REGISTRY.register("plurality", "counts")
def _protocol_counts(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The ``(R, k)`` sufficient-statistics tier: a one-task batch of
    :func:`~repro.core.protocol.run_heterogeneous_counts_protocol`."""
    (result,) = run_heterogeneous_counts_protocol(
        [_counts_protocol_task(scenario, noise)]
    )
    return SimulationResult.from_ensemble_result(
        result, workload=scenario.workload, engine=engine
    )


# --------------------------------------------------------------------- #
# Dynamics workload
# --------------------------------------------------------------------- #


def _dynamics_epsilon(scenario: Scenario) -> Optional[float]:
    """The ``epsilon`` to forward to :func:`build_dynamics`.

    Only the approximate-consensus rule takes a precision target (the
    scenario's ``epsilon`` doubles as it); every other rule must see
    ``None`` or the factory rejects the argument.
    """
    if scenario.rule == "approximate-consensus":
        return scenario.epsilon
    return None


@ENGINE_REGISTRY.register("dynamics", "batched")
@ENGINE_REGISTRY.register("dynamics", "counts")
def _dynamics_ensemble(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The batched / counts dynamics tiers via :func:`build_dynamics`."""
    initial_state = (
        scenario.initial_counts_state()
        if engine == "counts"
        else scenario.initial_state()
    )
    dynamic = build_dynamics(
        engine,
        scenario.rule,
        scenario.num_nodes,
        noise,
        scenario.seed,
        sample_size=scenario.sample_size,
        epsilon=_dynamics_epsilon(scenario),
    )
    result = dynamic.run(
        initial_state,
        scenario.max_rounds,
        scenario.num_trials,
        target_opinion=scenario.target_opinion(),
        stop_at_consensus=scenario.stop_at_consensus,
        record_history=scenario.record_trajectories,
    )
    return SimulationResult.from_ensemble_dynamics_result(result, engine=engine)


@ENGINE_REGISTRY.register("rumor", "analytic")
@ENGINE_REGISTRY.register("plurality", "analytic")
def _protocol_analytic(
    scenario: Scenario,
    noise: NoiseMatrix,
    engine: str,
    schedule: Optional["ProtocolSchedule"] = None,
) -> SimulationResult:
    """The sampling-free protocol tier: the full count-state distribution
    evolved through both stages (:class:`AnalyticProtocol`), from the
    counts-native entry state — the analytic tier never materializes
    per-node opinions.  :func:`_resolve_engine` has refused every scenario
    past the exact budgets, and hands over the ``schedule`` it checked.
    """
    from repro.core.analytic import AnalyticProtocol

    counts_state = scenario.initial_counts_state()
    protocol = AnalyticProtocol(
        scenario.num_nodes,
        noise,
        epsilon=scenario.epsilon,
        schedule=schedule,
        round_scale=scenario.round_scale,
    )
    result = protocol.run(
        counts_state.counts, target_opinion=scenario.target_opinion()
    )
    return SimulationResult.from_analytic_protocol(
        result, workload=scenario.workload, engine=engine
    )


@ENGINE_REGISTRY.register("dynamics", "analytic")
def _dynamics_analytic(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The sampling-free dynamics tier: the exact Markov chain over count
    states (:class:`ExactDynamicsChain`)."""
    from repro.dynamics.analytic import ExactDynamicsChain

    counts_state = scenario.initial_counts_state()
    dynamic = ExactDynamicsChain(
        scenario.rule,
        scenario.num_nodes,
        noise,
        sample_size=scenario.sample_size,
    )
    result = dynamic.run(
        counts_state.counts,
        scenario.max_rounds,
        target_opinion=scenario.target_opinion(),
        stop_at_consensus=scenario.stop_at_consensus,
        record_history=scenario.record_trajectories,
    )
    return SimulationResult.from_analytic_dynamics(result, engine=engine)


@ENGINE_REGISTRY.register("dynamics", "sequential")
def _dynamics_sequential(
    scenario: Scenario, noise: NoiseMatrix, engine: str
) -> SimulationResult:
    """The sequential dynamics reference loop, one engine per trial."""
    initial_state = scenario.initial_state()
    target = scenario.target_opinion()
    results = []
    for generator in as_trial_generators(scenario.seed, scenario.num_trials):
        dynamic = build_dynamics(
            "sequential",
            scenario.rule,
            scenario.num_nodes,
            noise,
            generator,
            sample_size=scenario.sample_size,
            epsilon=_dynamics_epsilon(scenario),
        )
        results.append(
            dynamic.run(
                initial_state,
                scenario.max_rounds,
                target_opinion=target,
                stop_at_consensus=scenario.stop_at_consensus,
                record_history=scenario.record_trajectories,
            )
        )
    return SimulationResult.from_dynamics_results(results, engine=engine)
