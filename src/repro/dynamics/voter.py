"""The voter model: copy the opinion of one random node.

The simplest pull dynamics: in each round every node observes one uniformly
random node and adopts its opinion (if the target is undecided, the observer
keeps its current state).  The voter model reaches consensus only in
``Theta(n)`` expected rounds on the complete graph and offers no bias
amplification, so it serves as the "floor" baseline in the comparison
experiment: it shows what happens when nodes do no aggregation at all, with
or without noise.
"""

from __future__ import annotations

from repro.core.state import EnsembleState, PopulationState
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.utils.rng import EnsembleRandomState

__all__ = [
    "VoterDynamics",
    "EnsembleVoterDynamics",
    "EnsembleCountsVoterDynamics",
]


class VoterDynamics(OpinionDynamics):
    """Copy one noisy random observation per round."""

    name = "voter"

    def step(self, state: PopulationState) -> None:
        """One round: every node copies a noisy observation (if any)."""
        self._check_state(state)
        observed = self.pull.observe_single(state.opinions)
        updaters = observed > 0
        state.opinions[updaters] = observed[updaters]


class EnsembleVoterDynamics(EnsembleOpinionDynamics):
    """The voter model batched over ``R`` independent trials."""

    name = "voter"

    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the copy rule over the whole batch."""
        observed = self.pull.observe_single(state.opinions, random_state)
        updaters = observed > 0
        state.opinions[updaters] = observed[updaters]


class EnsembleCountsVoterDynamics(EnsembleCountsDynamics):
    """The voter model on ``(R, k)`` sufficient statistics (counts engine).

    A node that observes an opinion adopts it irrespective of its own, so
    one grouped observation draw per round determines the new counts: the
    new supporters of opinion ``j`` are every node that observed ``j`` plus
    the current ``j``-supporters that observed an undecided target.
    """

    name = "voter"
    rule_family = "voter"
