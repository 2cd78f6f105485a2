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

Every name in ``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "BallsIntoBinsProcess": "repro.network.balls_bins",
    "EnsemblePullModel": "repro.network.pull_model",
    "GraphPushModel": "repro.network.topology",
    "HeterogeneousCountsDeliveryModel": "repro.network.balls_bins",
    "PoissonizedProcess": "repro.network.poisson_model",
    "PushPhaseStatistics": "repro.network.push_model",
    "ReceivedMessages": "repro.network.mailbox",
    "UniformPullModel": "repro.network.pull_model",
    "UniformPushModel": "repro.network.push_model",
    "deliver_phase": "repro.network.delivery",
    "poisson_tail_probability": "repro.network.balls_bins",
    "standard_topology": "repro.network.topology",
    "supports_population_delivery": "repro.network.delivery",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
