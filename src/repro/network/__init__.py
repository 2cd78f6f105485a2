"""Communication substrates: the noisy uniform push model and its relatives.

The paper analyses one physical communication model and two mathematical
surrogates of it:

* **process O** (:class:`~repro.network.push_model.UniformPushModel`) — the
  noisy uniform push model itself: in each synchronous round every
  opinionated node pushes its opinion to a node chosen uniformly at random,
  and the opinion is perturbed in transit by the noise matrix;
* **process B** (:class:`~repro.network.balls_bins.BallsIntoBinsProcess`) —
  the balls-into-bins reformulation of Definition 3: all messages of a phase
  are re-colored by the noise and thrown into the ``n`` bins u.a.r.;
* **process P** (:class:`~repro.network.poisson_model.PoissonizedProcess`) —
  the Poissonized approximation of Definition 4, where each node receives an
  independent ``Poisson(h_i / n)`` number of copies of each opinion ``i``.

Claim 1 states that O and B induce the same end-of-phase distribution, and
Lemma 2/3 show that events that hold w.h.p. under P also hold w.h.p. under O;
experiment E8 validates both statements statistically using these engines.

A noisy uniform *pull* substrate is also provided for the baseline dynamics
of the related-work comparison (3-majority, h-majority, …), which are
classically stated in terms of pulling a few random opinions per round.
"""

from repro.network.balls_bins import (
    BallsIntoBinsProcess,
    HeterogeneousCountsDeliveryModel,
    poisson_tail_probability,
)
from repro.network.delivery import deliver_phase, supports_population_delivery
from repro.network.mailbox import ReceivedMessages
from repro.network.poisson_model import PoissonizedProcess
from repro.network.pull_model import (
    EnsemblePullModel,
    UniformPullModel,
)
from repro.network.push_model import PushPhaseStatistics, UniformPushModel
from repro.network.topology import GraphPushModel, standard_topology

__all__ = [
    "BallsIntoBinsProcess",
    "EnsemblePullModel",
    "GraphPushModel",
    "HeterogeneousCountsDeliveryModel",
    "PoissonizedProcess",
    "PushPhaseStatistics",
    "ReceivedMessages",
    "UniformPullModel",
    "UniformPushModel",
    "deliver_phase",
    "poisson_tail_probability",
    "standard_topology",
    "supports_population_delivery",
]
