"""Dispatch helper between delivery engines and the protocol executors.

The complete-graph engines (processes O, B, P) are *anonymous*: a phase is
fully described by the multiset of sender opinions, so they expose
``run_phase_from_senders(sender_opinions, num_rounds)``.  Topology-aware
engines (e.g. :class:`~repro.network.topology.GraphPushModel`) additionally
need to know *which* node holds which opinion, so they expose
``run_phase_from_population(opinions, num_rounds)`` taking the full opinion
vector (0 = undecided, undecided nodes do not push).

:func:`deliver_phase` hides that difference from the Stage-1/Stage-2
executors: it prefers the population-aware entry point when the engine
provides one and falls back to the anonymous one otherwise.

:func:`make_delivery_engine` is the one factory for the three
complete-graph engines (processes O, B and P) by name; it backs both the
protocol drivers and the :mod:`repro.sim` facade's engine registry.
"""

from __future__ import annotations

import numpy as np

from repro.network.balls_bins import BallsIntoBinsProcess
from repro.network.mailbox import EnsembleReceivedMessages, ReceivedMessages
from repro.network.poisson_model import PoissonizedProcess
from repro.network.push_model import UniformPushModel
from repro.noise.matrix import NoiseMatrix
from repro.utils.multiset import opinion_counts_matrix
from repro.utils.rng import EnsembleRandomState, RandomState

__all__ = [
    "DELIVERY_PROCESSES",
    "deliver_phase",
    "make_delivery_engine",
    "supports_population_delivery",
    "deliver_ensemble_phase",
    "supports_ensemble_delivery",
]

#: Delivery processes accepted by :func:`make_delivery_engine`.
DELIVERY_PROCESSES = ("push", "balls_bins", "poisson")


def make_delivery_engine(
    process: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state: RandomState = None,
):
    """Instantiate a complete-graph delivery engine by name.

    ``process`` is one of ``"push"`` (process O, the real model),
    ``"balls_bins"`` (process B) or ``"poisson"`` (process P).
    """
    if process == "push":
        return UniformPushModel(num_nodes, noise, random_state)
    if process == "balls_bins":
        return BallsIntoBinsProcess(num_nodes, noise, random_state)
    if process == "poisson":
        return PoissonizedProcess(num_nodes, noise, random_state)
    raise ValueError(
        f"process must be one of {DELIVERY_PROCESSES}, got {process!r}"
    )


def supports_population_delivery(engine) -> bool:
    """``True`` if the engine consumes the full opinion vector per phase."""
    return hasattr(engine, "run_phase_from_population")


def deliver_phase(engine, opinions: np.ndarray, num_rounds: int) -> ReceivedMessages:
    """Deliver one protocol phase on ``engine``.

    Parameters
    ----------
    engine:
        A delivery engine exposing either ``run_phase_from_population`` (full
        opinion vector, topology-aware) or ``run_phase_from_senders``
        (anonymous multiset of sender opinions).
    opinions:
        The full opinion vector of the population (0 = undecided).  Undecided
        nodes do not push.
    num_rounds:
        Number of rounds in the phase.
    """
    opinions = np.asarray(opinions, dtype=np.int64)
    if supports_population_delivery(engine):
        return engine.run_phase_from_population(opinions, num_rounds)
    if hasattr(engine, "run_phase_from_senders"):
        sender_opinions = opinions[opinions > 0]
        return engine.run_phase_from_senders(sender_opinions, num_rounds)
    raise TypeError(
        "engine must expose run_phase_from_population or run_phase_from_senders"
    )


def supports_ensemble_delivery(engine) -> bool:
    """``True`` if the engine can deliver a whole ``(R, n)`` batch per phase."""
    return hasattr(engine, "run_ensemble_phase_from_senders")


def deliver_ensemble_phase(
    engine,
    opinions: np.ndarray,
    num_rounds: int,
    random_state: EnsembleRandomState,
) -> EnsembleReceivedMessages:
    """Deliver one protocol phase for ``R`` independent trials at once.

    Parameters
    ----------
    engine:
        An anonymous delivery engine exposing
        ``run_ensemble_phase_from_senders`` (all three complete-graph
        processes O, B, P do; topology-aware engines do not).
    opinions:
        The ``(R, n)`` opinion matrix of the ensemble (0 = undecided).
        Undecided nodes do not push; each trial's sender-opinion histogram is
        extracted with a single batched bincount.
    num_rounds:
        Number of rounds in the phase.
    random_state:
        The batch's randomness; trial ``r`` draws from its own stream (see
        :func:`~repro.utils.rng.as_trial_generators`).
    """
    if not supports_ensemble_delivery(engine):
        raise TypeError(
            "engine must expose run_ensemble_phase_from_senders; the "
            "complete-graph engines (push, balls_bins, poisson) do, "
            "topology-aware engines must go through the sequential path"
        )
    histograms = opinion_counts_matrix(opinions, int(engine.num_opinions))
    return engine.run_ensemble_phase_from_senders(
        histograms, num_rounds, random_state
    )
