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

from repro.core.memory import memory_bound_bits, protocol_memory_usage
from repro.core.plurality import PluralityConsensus, PluralityInstance
from repro.core.protocol import (
    CountsProtocol,
    EnsembleProtocol,
    EnsembleResult,
    ProtocolResult,
    TwoStageProtocol,
)
from repro.core.rumor import RumorSpreading, RumorSpreadingInstance
from repro.core.schedule import ProtocolSchedule, Stage1Schedule, Stage2Schedule
from repro.core.state import (
    CountsState,
    EnsembleCountsState,
    EnsembleState,
    PopulationState,
)
from repro.dynamics import (
    DYNAMICS_RULES,
    EnsembleCountsDynamics,
    EnsembleDynamicsResult,
    EnsembleOpinionDynamics,
)
from repro.network.balls_bins import BallsIntoBinsProcess
from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.network.poisson_model import PoissonizedProcess
from repro.network.pull_model import (
    EnsemblePullModel,
    UniformPullModel,
)
from repro.network.push_model import UniformPushModel
from repro.network.topology import GraphPushModel, standard_topology
from repro.noise.estimation import (
    calibrate_epsilon,
    collect_channel_observations,
    estimate_noise_matrix,
    estimation_error,
)
from repro.noise.families import (
    binary_flip_matrix,
    cyclic_shift_matrix,
    diagonally_dominant_counterexample,
    identity_matrix,
    near_uniform_matrix,
    reset_matrix,
    uniform_noise_matrix,
)
from repro.noise.majority_preserving import (
    MajorityPreservationReport,
    check_majority_preserving,
    epsilon_for_delta,
    sufficient_condition_epsilon,
)
from repro.noise.matrix import NoiseMatrix
from repro.sim import Scenario, SimulationResult, simulate

# The version is sourced from the installed package metadata; a source
# checkout on PYTHONPATH (not pip-installed) falls back to the pyproject
# version it tracks.
try:  # pragma: no cover - depends on the install mode
    from importlib.metadata import PackageNotFoundError, version as _version

    __version__ = _version("repro-fraigniaud-natale-2016")
except PackageNotFoundError:  # pragma: no cover - source checkout
    __version__ = "1.0.0"

__all__ = [
    "BallsIntoBinsProcess",
    "CountsProtocol",
    "CountsState",
    "DYNAMICS_RULES",
    "EnsembleCountsDynamics",
    "EnsembleCountsState",
    "EnsembleDynamicsResult",
    "EnsembleOpinionDynamics",
    "EnsembleProtocol",
    "EnsemblePullModel",
    "EnsembleReceivedMessages",
    "EnsembleResult",
    "EnsembleState",
    "GraphPushModel",
    "MajorityPreservationReport",
    "NoiseMatrix",
    "PluralityConsensus",
    "PluralityInstance",
    "PoissonizedProcess",
    "PopulationState",
    "ProtocolResult",
    "ProtocolSchedule",
    "ReceivedMessages",
    "RumorSpreading",
    "RumorSpreadingInstance",
    "Scenario",
    "SimulationResult",
    "Stage1Schedule",
    "Stage2Schedule",
    "TwoStageProtocol",
    "UniformPullModel",
    "UniformPushModel",
    "__version__",
    "binary_flip_matrix",
    "calibrate_epsilon",
    "check_majority_preserving",
    "collect_channel_observations",
    "cyclic_shift_matrix",
    "diagonally_dominant_counterexample",
    "epsilon_for_delta",
    "estimate_noise_matrix",
    "estimation_error",
    "identity_matrix",
    "memory_bound_bits",
    "near_uniform_matrix",
    "protocol_memory_usage",
    "reset_matrix",
    "simulate",
    "standard_topology",
    "sufficient_condition_epsilon",
    "uniform_noise_matrix",
]
