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

from repro.sim import facade  # noqa: F401
from repro.utils.lazy import lazy_exports

# The facade loads with the package, and with it every module a counts
# run executes, so no counts call pays for an import; their names are
# bound here at once.  The sweep layer and the per-node delivery factory
# load on first use.

#: Public name -> the module that defines it.
_EXPORTS = {
    "DEFAULT_COUNTS_THRESHOLD": "repro.sim.facade",
    "DELIVERY_PROCESSES": "repro.sim.scenario",
    "ENGINE_POLICIES": "repro.sim.scenario",
    "ENGINE_REGISTRY": "repro.sim.engines",
    "ENGINE_TIERS": "repro.sim.engines",
    "EngineRegistry": "repro.sim.engines",
    "Scenario": "repro.sim.scenario",
    "ScenarioError": "repro.sim.scenario",
    "ScenarioGrid": "repro.sim.sweep",
    "SimulationResult": "repro.sim.result",
    "SweepResult": "repro.sim.sweep",
    "TOPOLOGIES": "repro.sim.scenario",
    "WORKLOADS": "repro.sim.scenario",
    "build_dynamics": "repro.sim.engines",
    "make_delivery_engine": "repro.network.delivery",
    "resolve_trial_engine": "repro.sim.facade",
    "set_default_counts_threshold": "repro.sim.facade",
    "sim_code_version": "repro.sim.facade",
    "simulate": "repro.sim.facade",
    "simulate_sweep": "repro.sim.sweep",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
