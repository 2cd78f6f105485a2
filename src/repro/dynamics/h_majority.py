"""The h-majority dynamics (and its best-known special case, 3-majority).

In each round every node samples the opinions of ``h`` nodes chosen uniformly
at random (with replacement) and adopts the most frequent opinion among the
observations, breaking ties uniformly at random.  With ``h = 3`` this is the
3-majority dynamics analyzed in [9] (and shown there to solve plurality
consensus quickly when the initial bias is large enough); general ``h`` is
studied in [13, 1].

Here every observation passes through the noise matrix, so the dynamics can
be compared head-to-head against the paper's protocol on the same noisy
substrate (experiment E12).  Undecided nodes participate as observers but are
transparent as observation targets (observing an undecided node yields no
opinion); a node that observes no opinion keeps its current one.
"""

from __future__ import annotations

from repro.core.state import EnsembleState, PopulationState
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.network.pull_model import vote_table_is_tractable
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import EnsembleRandomState, RandomState
from repro.utils.validation import require_positive_int

__all__ = [
    "HMajorityDynamics",
    "ThreeMajorityDynamics",
    "EnsembleHMajorityDynamics",
    "EnsembleThreeMajorityDynamics",
    "EnsembleCountsHMajorityDynamics",
    "EnsembleCountsThreeMajorityDynamics",
]


class HMajorityDynamics(OpinionDynamics):
    """Adopt the majority opinion of ``sample_size`` random observations."""

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        sample_size: int,
        random_state: RandomState = None,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.sample_size = require_positive_int(sample_size, "sample_size")
        self.name = f"{self.sample_size}-majority"

    def step(self, state: PopulationState) -> None:
        """One round: observe ``sample_size`` nodes, adopt the observed mode."""
        self._check_state(state)
        received = self.pull.observe(state.opinions, self.sample_size)
        votes = received.majority_votes(self._rng)
        updaters = votes > 0
        state.opinions[updaters] = votes[updaters]


class ThreeMajorityDynamics(HMajorityDynamics):
    """The 3-majority dynamics of [9] (``h = 3``)."""

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        super().__init__(num_nodes, noise, sample_size=3, random_state=random_state)
        self.name = "3-majority"


class EnsembleHMajorityDynamics(EnsembleOpinionDynamics):
    """The h-majority dynamics batched over ``R`` independent trials."""

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        sample_size: int,
        random_state: EnsembleRandomState = None,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.sample_size = require_positive_int(sample_size, "sample_size")
        self.name = f"{self.sample_size}-majority"

    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One round of the majority rule over the whole batch.

        Uses the fused vote sampler: each node's ``maj()`` vote is drawn
        from its exact closed-form law (one uniform per node per trial),
        which matches ``observe`` + batched ``majority_votes`` in
        distribution at a fraction of the cost.
        """
        votes = self.pull.observe_majority_votes(
            state.opinions, self.sample_size, random_state
        )
        updaters = votes > 0
        state.opinions[updaters] = votes[updaters]


class EnsembleThreeMajorityDynamics(EnsembleHMajorityDynamics):
    """The 3-majority dynamics of [9], batched (``h = 3``)."""

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        super().__init__(
            num_nodes, noise, sample_size=3, random_state=random_state
        )
        self.name = "3-majority"


class EnsembleCountsHMajorityDynamics(EnsembleCountsDynamics):
    """The h-majority dynamics on sufficient statistics (counts engine).

    Every node's ``maj()`` vote is an i.i.d. draw from the exact
    closed-form vote law, so one grouped vote draw per round determines
    the new counts — nodes that cast a vote adopt it, nodes that observed
    no opinion keep their current one.  Because the counts engine has no
    per-message fallback, ``(sample_size, k)`` must fit the composition
    table (checked eagerly at construction); the batched engine covers the
    huge-sample corner.
    """

    rule_family = "majority"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        sample_size: int,
        random_state: EnsembleRandomState = None,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.sample_size = require_positive_int(sample_size, "sample_size")
        if not vote_table_is_tractable(self.sample_size, self.num_opinions):
            raise ValueError(
                f"the counts engine needs the closed-form maj() table, which "
                f"is intractable for sample_size={self.sample_size}, "
                f"k={self.num_opinions}; use the batched engine instead"
            )
        self.name = f"{self.sample_size}-majority"


class EnsembleCountsThreeMajorityDynamics(EnsembleCountsHMajorityDynamics):
    """The 3-majority dynamics on sufficient statistics (``h = 3``)."""

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
    ) -> None:
        super().__init__(
            num_nodes, noise, sample_size=3, random_state=random_state
        )
        self.name = "3-majority"
