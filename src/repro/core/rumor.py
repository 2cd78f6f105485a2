"""The noisy rumor-spreading problem (Theorem 1).

One source node starts with the *correct* opinion ``m`` in ``{1, …, k}`` and
every other node is undecided; the goal is that after ``O(log n / eps^2)``
rounds every node supports ``m`` w.h.p., despite every transmitted opinion
being perturbed by an ``(eps, delta)``-majority-preserving noise matrix.

:class:`RumorSpreading` is a thin convenience wrapper that builds the
single-source initial state, runs the two-stage protocol, and reports the
outcome in problem-level terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.protocol import ProtocolResult, TwoStageProtocol
from repro.core.schedule import ProtocolSchedule
from repro.core.state import PopulationState
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import RandomState
from repro.utils.validation import require_positive_int

__all__ = ["RumorSpreading", "RumorSpreadingInstance"]


@dataclass(frozen=True)
class RumorSpreadingInstance:
    """A rumor-spreading problem instance.

    Attributes
    ----------
    num_nodes:
        Population size ``n``.
    num_opinions:
        Number of possible opinions ``k``.
    correct_opinion:
        The source's opinion ``m``.
    source_node:
        Index of the source node (irrelevant on the complete graph, kept for
        reproducibility of traces).
    """

    num_nodes: int
    num_opinions: int
    correct_opinion: int
    source_node: int = 0

    def initial_state(self) -> PopulationState:
        """The initial population: one source, everyone else undecided."""
        return PopulationState.single_source(
            self.num_nodes, self.num_opinions, self.correct_opinion, self.source_node
        )


class RumorSpreading:
    """Solve noisy rumor spreading with the paper's two-stage protocol.

    Parameters
    ----------
    num_nodes, num_opinions:
        Population size ``n`` and opinion-space size ``k``.
    noise:
        The noise matrix (must have ``k`` opinions).
    epsilon:
        The majority-preservation parameter used for the schedule; for the
        canonical uniform-noise family this is the matrix's ``eps``, for an
        arbitrary matrix use
        :func:`repro.noise.majority_preserving.epsilon_for_delta`.
    correct_opinion:
        The opinion held by the source.
    """

    def __init__(
        self,
        num_nodes: int,
        num_opinions: int,
        noise: NoiseMatrix,
        epsilon: float,
        *,
        correct_opinion: int = 1,
        source_node: int = 0,
        schedule: Optional[ProtocolSchedule] = None,
        process: str = "push",
        random_state: RandomState = None,
        round_scale: float = 1.0,
    ) -> None:
        num_nodes = require_positive_int(num_nodes, "num_nodes")
        num_opinions = require_positive_int(num_opinions, "num_opinions")
        if noise.num_opinions != num_opinions:
            raise ValueError(
                f"noise matrix has {noise.num_opinions} opinions, expected {num_opinions}"
            )
        if not (1 <= correct_opinion <= num_opinions):
            raise ValueError(
                f"correct_opinion must be in [1, {num_opinions}], got {correct_opinion}"
            )
        self.instance = RumorSpreadingInstance(
            num_nodes=num_nodes,
            num_opinions=num_opinions,
            correct_opinion=correct_opinion,
            source_node=source_node,
        )
        self.protocol = TwoStageProtocol(
            num_nodes,
            noise,
            schedule=schedule,
            epsilon=epsilon,
            process=process,
            random_state=random_state,
            round_scale=round_scale,
        )

    def run(self, *, stop_at_consensus: bool = False) -> ProtocolResult:
        """Run the protocol on a fresh single-source initial state."""
        return self.protocol.run(
            self.instance.initial_state(),
            target_opinion=self.instance.correct_opinion,
            stop_at_consensus=stop_at_consensus,
        )
