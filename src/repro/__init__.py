"""repro — Noisy Rumor Spreading and Plurality Consensus.

A reproduction of Fraigniaud & Natale, *Noisy Rumor Spreading and Plurality
Consensus*, PODC 2016 (arXiv:1507.05796).

The package provides:

* the unified simulation facade — one declarative :class:`~repro.sim.
  Scenario`, one :func:`~repro.sim.simulate` call, one
  :class:`~repro.sim.SimulationResult` across all three engine tiers
  (:mod:`repro.sim`),
* the noisy uniform push model and its analytical surrogates
  (:mod:`repro.network`),
* noise matrices and the (epsilon, delta)-majority-preserving theory
  (:mod:`repro.noise`),
* the paper's two-stage rumor-spreading / plurality-consensus protocol
  (:mod:`repro.core`),
* baseline opinion dynamics from the related literature
  (:mod:`repro.dynamics`),
* the analytical toolbox backing the proofs (:mod:`repro.analysis`),
* the experiment harness that regenerates every quantitative statement of
  the paper (:mod:`repro.experiments`).

Quickstart
----------
Describe what to simulate, let the facade pick (or be told) the engine:

>>> from repro import Scenario, simulate
>>> result = simulate(Scenario(
...     workload="rumor", num_nodes=600, num_opinions=4, epsilon=0.3,
...     correct_opinion=2, engine="batched", num_trials=8, seed=0,
... ))
>>> bool(result.successes.all())
True
>>> result.engine
'batched'

The same call scales to millions of nodes on the counts tier — the
``(R, k)`` sufficient-statistics engine whose per-round cost is
independent of ``n``:

>>> giant = simulate(Scenario(
...     workload="rumor", num_nodes=1_000_000, num_opinions=4,
...     epsilon=0.3, engine="counts", num_trials=4, seed=0,
... ))
>>> giant.num_nodes
1000000

Baseline opinion dynamics go through the identical entry point:

>>> dyn = simulate(Scenario(
...     workload="dynamics", rule="3-majority", num_nodes=500,
...     num_opinions=3, epsilon=0.66, bias=0.3, engine="batched",
...     num_trials=4, seed=0,
... ))
>>> bool(dyn.converged.all())
True
"""

from typing import Any

from repro.utils.lazy import lazy_exports

#: Public name -> the module that defines it, loaded on first use.
_EXPORTS = {
    "BallsIntoBinsProcess": "repro.network.balls_bins",
    "CountsProtocol": "repro.core.protocol",
    "CountsState": "repro.core.state",
    "DYNAMICS_RULES": "repro.dynamics",
    "EnsembleCountsDynamics": "repro.dynamics",
    "EnsembleCountsState": "repro.core.state",
    "EnsembleDynamicsResult": "repro.dynamics",
    "EnsembleOpinionDynamics": "repro.dynamics",
    "EnsembleProtocol": "repro.core.protocol",
    "EnsemblePullModel": "repro.network.pull_model",
    "EnsembleReceivedMessages": "repro.network.mailbox",
    "EnsembleResult": "repro.core.protocol",
    "EnsembleState": "repro.core.state",
    "GraphPushModel": "repro.network.topology",
    "MajorityPreservationReport": "repro.noise.majority_preserving",
    "NoiseMatrix": "repro.noise.matrix",
    "PluralityConsensus": "repro.core.plurality",
    "PluralityInstance": "repro.core.plurality",
    "PoissonizedProcess": "repro.network.poisson_model",
    "PopulationState": "repro.core.state",
    "ProtocolResult": "repro.core.protocol",
    "ProtocolSchedule": "repro.core.schedule",
    "ReceivedMessages": "repro.network.mailbox",
    "RumorSpreading": "repro.core.rumor",
    "RumorSpreadingInstance": "repro.core.rumor",
    "Scenario": "repro.sim",
    "SimulationResult": "repro.sim",
    "Stage1Schedule": "repro.core.schedule",
    "Stage2Schedule": "repro.core.schedule",
    "TwoStageProtocol": "repro.core.protocol",
    "UniformPullModel": "repro.network.pull_model",
    "UniformPushModel": "repro.network.push_model",
    "binary_flip_matrix": "repro.noise.families",
    "calibrate_epsilon": "repro.noise.estimation",
    "check_majority_preserving": "repro.noise.majority_preserving",
    "collect_channel_observations": "repro.noise.estimation",
    "cyclic_shift_matrix": "repro.noise.families",
    "diagonally_dominant_counterexample": "repro.noise.families",
    "epsilon_for_delta": "repro.noise.majority_preserving",
    "estimate_noise_matrix": "repro.noise.estimation",
    "estimation_error": "repro.noise.estimation",
    "identity_matrix": "repro.noise.families",
    "memory_bound_bits": "repro.core.memory",
    "near_uniform_matrix": "repro.noise.families",
    "protocol_memory_usage": "repro.core.memory",
    "reset_matrix": "repro.noise.families",
    "simulate": "repro.sim",
    "standard_topology": "repro.network.topology",
    "sufficient_condition_epsilon": "repro.noise.majority_preserving",
    "uniform_noise_matrix": "repro.noise.families",
}

__all__ = [*_EXPORTS, "__version__"]

_lazy_getattr, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str) -> Any:
    # The version is sourced from the installed package metadata on first
    # access, since the metadata lookup costs tens of milliseconds and no
    # simulation reads it; a source checkout on PYTHONPATH (not
    # pip-installed) falls back to the pyproject version it tracks.
    if name != "__version__":
        return _lazy_getattr(name)
    from importlib.metadata import PackageNotFoundError, version

    try:  # pragma: no cover - depends on the install mode
        value = version("repro-fraigniaud-natale-2016")
    except PackageNotFoundError:  # pragma: no cover - source checkout
        value = "1.0.0"
    globals()["__version__"] = value
    return value
