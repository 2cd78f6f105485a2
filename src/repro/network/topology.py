"""Noisy push on arbitrary graph topologies (an extension beyond the paper).

The paper analyses the complete graph: every push goes to a node chosen
uniformly at random from the whole population.  The surrounding literature
([13], [1]) studies majority dynamics on bounded-degree and random graphs,
and a natural question for a user of this library is how the two-stage
protocol degrades when the communication topology is sparse.

:class:`GraphPushModel` answers that experimentally: each opinionated node
pushes its opinion to a *neighbour* chosen uniformly at random in a supplied
:mod:`networkx` graph, with the same per-message noise matrix as the
complete-graph engines.  It plugs into the Stage-1/Stage-2 executors through
the population-aware delivery interface (see :mod:`repro.network.delivery`),
so the unchanged protocol can be run on rings, grids, random regular graphs,
Erdős–Rényi graphs, etc.  Experiment E14 sweeps a few standard topologies.

This module is an *extension*: none of the paper's theorems cover it, and the
experiments document where the complete-graph guarantees stop applying
(notably Stage 1's growth rate and the independence assumptions behind
Stage 2's concentration).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.network.mailbox import ReceivedMessages
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["GraphPushModel", "standard_topology"]


def standard_topology(
    name: str, num_nodes: int, random_state: RandomState = None, **kwargs
) -> nx.Graph:
    """Build one of a few named test topologies.

    Supported names: ``"complete"``, ``"cycle"``, ``"grid"`` (2-D torus of
    exactly ``num_nodes`` nodes, as close to square as the divisors of
    ``num_nodes`` allow; a cycle when it is prime), ``"random_regular"``
    (degree ``degree``, default 8), ``"erdos_renyi"`` (edge probability
    ``probability``, default ``4 ln n / n``), ``"star"``.
    """
    import networkx as nx

    num_nodes = require_positive_int(num_nodes, "num_nodes")
    rng = as_generator(random_state)
    seed = int(rng.integers(0, 2**31 - 1))
    if name == "complete":
        return nx.complete_graph(num_nodes)
    if name == "cycle":
        return nx.cycle_graph(num_nodes)
    if name == "grid":
        rows = max(
            d for d in range(1, math.isqrt(num_nodes) + 1) if num_nodes % d == 0
        )
        graph = nx.grid_2d_graph(rows, num_nodes // rows, periodic=True)
        return nx.convert_node_labels_to_integers(graph)
    if name == "random_regular":
        degree = int(kwargs.get("degree", 8))
        if degree >= num_nodes:
            return nx.complete_graph(num_nodes)
        if (degree * num_nodes) % 2 == 1:
            degree += 1
        return nx.random_regular_graph(degree, num_nodes, seed=seed)
    if name == "erdos_renyi":
        probability = float(
            kwargs.get("probability", 4.0 * np.log(max(num_nodes, 2)) / num_nodes)
        )
        return nx.gnp_random_graph(num_nodes, min(1.0, probability), seed=seed)
    if name == "star":
        return nx.star_graph(num_nodes - 1)
    raise ValueError(
        "unknown topology name "
        f"{name!r}; expected one of complete, cycle, grid, random_regular, "
        "erdos_renyi, star"
    )


class GraphPushModel:
    """Noisy uniform push restricted to the edges of a graph.

    Parameters
    ----------
    graph:
        An undirected :class:`networkx.Graph` on nodes ``0 .. n-1``.  Isolated
        nodes are allowed (they can receive nothing and their pushes are
        dropped).
    noise:
        The noise matrix applied to every message in transit.
    random_state:
        Randomness source.
    """

    def __init__(
        self,
        graph: nx.Graph,
        noise: NoiseMatrix,
        random_state: RandomState = None,
    ) -> None:
        if not isinstance(noise, NoiseMatrix):
            raise TypeError(
                f"noise must be a NoiseMatrix, got {type(noise).__name__}"
            )
        self.num_nodes = int(graph.number_of_nodes())
        if self.num_nodes < 1:
            raise ValueError("the graph must contain at least one node")
        if sorted(graph.nodes()) != list(range(self.num_nodes)):
            import networkx as nx

            graph = nx.convert_node_labels_to_integers(graph)
        self.graph = graph
        self.noise = noise
        self._rng = as_generator(random_state)
        # Flattened adjacency (CSR-style) for vectorized neighbour sampling.
        neighbor_lists = [list(graph.neighbors(node)) for node in range(self.num_nodes)]
        self._degrees = np.array([len(adj) for adj in neighbor_lists], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(self._degrees)))
        flat = [node for adj in neighbor_lists for node in adj]
        self._flat_neighbors = np.asarray(flat, dtype=np.int64)

    @property
    def num_opinions(self) -> int:
        """Number of opinions ``k`` understood by the channel."""
        return self.noise.num_opinions

    def degrees(self) -> np.ndarray:
        """Node degrees (useful for diagnostics in experiments)."""
        return self._degrees.copy()

    def _validate_population(self, opinions: np.ndarray) -> np.ndarray:
        array = np.asarray(opinions, dtype=np.int64).ravel()
        if array.shape[0] != self.num_nodes:
            raise ValueError(
                f"opinions must have length {self.num_nodes}, got {array.shape[0]}"
            )
        if array.size and (array.min() < 0 or array.max() > self.num_opinions):
            raise ValueError(
                f"opinions must lie in [0, {self.num_opinions}] (0 = undecided)"
            )
        return array

    def run_phase_from_population(
        self, opinions: np.ndarray, num_rounds: int
    ) -> ReceivedMessages:
        """Simulate ``num_rounds`` rounds of push along graph edges.

        In every round each opinionated node with at least one neighbour
        pushes its (noise-corrupted) opinion to a neighbour chosen uniformly
        at random.
        """
        num_rounds = require_positive_int(num_rounds, "num_rounds")
        opinions = self._validate_population(opinions)
        counts = np.zeros((self.num_nodes, self.num_opinions), dtype=np.int64)
        senders = np.nonzero((opinions > 0) & (self._degrees > 0))[0]
        if senders.size == 0:
            return ReceivedMessages(counts)
        sender_opinions = opinions[senders]
        sender_degrees = self._degrees[senders]
        sender_offsets = self._offsets[senders]
        for _ in range(num_rounds):
            delivered = self.noise.apply_to_opinions(sender_opinions, self._rng)
            picks = (self._rng.random(senders.size) * sender_degrees).astype(np.int64)
            targets = self._flat_neighbors[sender_offsets + picks]
            np.add.at(counts, (targets, delivered - 1), 1)
        return ReceivedMessages(counts)

    def run_round_from_population(self, opinions: np.ndarray) -> ReceivedMessages:
        """A single round of graph-restricted push."""
        return self.run_phase_from_population(opinions, 1)
