"""The noisy plurality-consensus problem (Theorem 2).

An initial set ``S`` of nodes hold opinions in ``{1, …, k}`` (the rest are
undecided); the goal is that every node eventually adopts the *plurality*
opinion — the opinion initially supported by more nodes than any other, not
necessarily by an absolute majority.  Theorem 2 requires
``|S| = Omega(log n / eps^2)`` and an initial plurality bias of
``Omega(sqrt(log n / |S|))`` relative to ``|S|``.

Note the bias convention: the paper's Theorem 2 measures the bias *within*
``S`` (an ``Omega(sqrt(log n / |S|))`` advantage among the opinionated
nodes), while Definition 1's distribution bias is relative to all ``n``
nodes.  :class:`PluralityInstance` exposes both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.protocol import ProtocolResult, TwoStageProtocol
from repro.core.schedule import ProtocolSchedule
from repro.core.state import PopulationState, counts_from_shares
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import require_positive_int

__all__ = ["PluralityConsensus", "PluralityInstance"]


@dataclass(frozen=True)
class PluralityInstance:
    """A plurality-consensus problem instance.

    Attributes
    ----------
    num_nodes:
        Population size ``n``.
    num_opinions:
        Number of possible opinions ``k``.
    opinion_counts:
        ``opinion_counts[i]`` nodes initially support opinion ``i``
        (the sets ``A_i``); nodes not covered are undecided.
    """

    num_nodes: int
    num_opinions: int
    opinion_counts: Dict[int, int]

    def __post_init__(self) -> None:
        total = sum(self.opinion_counts.values())
        if total > self.num_nodes:
            raise ValueError(
                f"initial opinion counts sum to {total} > n = {self.num_nodes}"
            )
        if total == 0:
            raise ValueError("at least one node must hold an opinion initially")
        for opinion, count in self.opinion_counts.items():
            if not (1 <= opinion <= self.num_opinions):
                raise ValueError(
                    f"opinion {opinion} outside [1, {self.num_opinions}]"
                )
            if count < 0:
                raise ValueError(f"count for opinion {opinion} must be >= 0")

    @property
    def support_size(self) -> int:
        """``|S|`` — the number of initially opinionated nodes."""
        return int(sum(self.opinion_counts.values()))

    def plurality_opinion(self) -> int:
        """The initially most supported opinion (smallest label on ties)."""
        return min(
            self.opinion_counts,
            key=lambda opinion: (-self.opinion_counts[opinion], opinion),
        )

    def plurality_bias_within_support(self) -> float:
        """The Theorem-2 bias: ``(|A_m| - max_{i != m}|A_i|) / |S|``."""
        counts = sorted(self.opinion_counts.values(), reverse=True)
        top = counts[0]
        runner_up = counts[1] if len(counts) > 1 else 0
        return (top - runner_up) / self.support_size

    def plurality_bias_global(self) -> float:
        """The Definition-1 bias measured over all ``n`` nodes."""
        counts = sorted(self.opinion_counts.values(), reverse=True)
        top = counts[0]
        runner_up = counts[1] if len(counts) > 1 else 0
        return (top - runner_up) / self.num_nodes

    def initial_state(self, random_state: RandomState = None) -> PopulationState:
        """Materialize the instance as a population state."""
        return PopulationState.from_counts(
            self.num_nodes, self.opinion_counts, self.num_opinions, random_state
        )

    @classmethod
    def from_support_fractions(
        cls,
        num_nodes: int,
        support_size: int,
        fractions: Sequence[float],
    ) -> "PluralityInstance":
        """Build an instance from ``|S|`` and the opinion shares within ``S``.

        ``fractions[i]`` is the share of ``S`` supporting opinion ``i + 1``;
        shares must sum to 1 (up to rounding).  Rounding slack goes to the
        plurality opinion so the intended plurality is never lost.
        """
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        support_size = require_positive_int(support_size, "support_size")
        if support_size > num_nodes:
            raise ValueError(
                f"support_size {support_size} exceeds num_nodes {num_nodes}"
            )
        shares = np.asarray(fractions, dtype=float)
        if shares.ndim != 1 or shares.size < 1:
            raise ValueError("fractions must be a non-empty vector")
        if np.any(shares < 0) or abs(shares.sum() - 1.0) > 1e-6:
            raise ValueError("fractions must be non-negative and sum to 1")
        counts = counts_from_shares(shares, support_size)
        opinion_counts = {
            index + 1: int(count) for index, count in enumerate(counts) if count > 0
        }
        return cls(
            num_nodes=num_nodes,
            num_opinions=shares.size,
            opinion_counts=opinion_counts,
        )


class PluralityConsensus:
    """Solve noisy plurality consensus with the paper's two-stage protocol.

    Stage 1 lets the initially opinionated set ``S`` spread opinions to the
    whole population (preserving the plurality bias); Stage 2 amplifies the
    bias until consensus.  When ``S`` already covers every node, Stage 1
    degenerates to a short warm-up and the work happens in Stage 2.

    Parameters
    ----------
    instance:
        The problem instance.
    noise:
        The noise matrix (must have ``instance.num_opinions`` opinions).
    epsilon:
        The majority-preservation parameter used for the schedule.
    """

    def __init__(
        self,
        instance: PluralityInstance,
        noise: NoiseMatrix,
        epsilon: float,
        *,
        schedule: Optional[ProtocolSchedule] = None,
        process: str = "push",
        random_state: RandomState = None,
        round_scale: float = 1.0,
    ) -> None:
        if noise.num_opinions != instance.num_opinions:
            raise ValueError(
                f"noise matrix has {noise.num_opinions} opinions, expected "
                f"{instance.num_opinions}"
            )
        self.instance = instance
        self._rng = as_generator(random_state)
        self.protocol = TwoStageProtocol(
            instance.num_nodes,
            noise,
            schedule=schedule,
            epsilon=epsilon,
            process=process,
            random_state=self._rng,
            round_scale=round_scale,
        )

    def run(self, *, stop_at_consensus: bool = False) -> ProtocolResult:
        """Run the protocol on a fresh realization of the instance."""
        initial_state = self.instance.initial_state(self._rng)
        return self.protocol.run(
            initial_state,
            target_opinion=self.instance.plurality_opinion(),
            stop_at_consensus=stop_at_consensus,
        )
