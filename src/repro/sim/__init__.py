"""``repro.sim`` — the unified simulation facade.

One declarative :class:`Scenario` describes *what* to simulate (rumor
spreading, plurality consensus, or a baseline opinion dynamic), one
:func:`simulate` call executes it on the right engine tier (sequential
reference loop, batched ``(R, n)`` ensemble, counts ``(R, k)`` sufficient
statistics, or ``auto``), and one :class:`SimulationResult` carries the
per-trial verdicts, the measurements and the provenance — across every
workload and every tier.

The :data:`~repro.sim.engines.ENGINE_REGISTRY` keyed by
``(workload, engine)`` is the single dispatch table, and
:func:`resolve_trial_engine` the single owner of the ``auto`` policy (the
batched/counts switch-over at :data:`DEFAULT_COUNTS_THRESHOLD` nodes).
Every experiment that runs whole protocols or dynamics goes through
``simulate()``; under a fixed seed a scenario is bitwise reproducible per
engine tier.

>>> from repro.sim import Scenario, simulate
>>> result = simulate(Scenario(
...     workload="rumor", num_nodes=600, num_opinions=3, epsilon=0.3,
...     engine="batched", num_trials=4, seed=0,
... ))
>>> bool(result.successes.all())
True
"""

from repro.sim.engines import (
    DELIVERY_PROCESSES,
    ENGINE_REGISTRY,
    ENGINE_TIERS,
    EngineRegistry,
    build_dynamics,
    make_delivery_engine,
)
from repro.sim.facade import (
    DEFAULT_COUNTS_THRESHOLD,
    resolve_trial_engine,
    set_default_counts_threshold,
    sim_code_version,
    simulate,
)
from repro.sim.result import SimulationResult
from repro.sim.sweep import ScenarioGrid, SweepResult, simulate_sweep
from repro.sim.scenario import (
    ENGINE_POLICIES,
    TOPOLOGIES,
    WORKLOADS,
    Scenario,
    ScenarioError,
)

__all__ = [
    "DEFAULT_COUNTS_THRESHOLD",
    "DELIVERY_PROCESSES",
    "ENGINE_POLICIES",
    "ENGINE_REGISTRY",
    "ENGINE_TIERS",
    "EngineRegistry",
    "Scenario",
    "ScenarioError",
    "ScenarioGrid",
    "SimulationResult",
    "SweepResult",
    "TOPOLOGIES",
    "WORKLOADS",
    "build_dynamics",
    "make_delivery_engine",
    "resolve_trial_engine",
    "set_default_counts_threshold",
    "sim_code_version",
    "simulate",
    "simulate_sweep",
]
