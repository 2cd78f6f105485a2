"""Tests for repro.network.topology (graph-restricted push, extension)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.network.topology import GraphPushModel, standard_topology
from repro.noise.families import identity_matrix, uniform_noise_matrix


class TestStandardTopology:
    def test_complete(self):
        graph = standard_topology("complete", 10)
        assert graph.number_of_nodes() == 10
        assert graph.number_of_edges() == 45

    def test_cycle(self):
        graph = standard_topology("cycle", 12)
        degrees = [degree for _, degree in graph.degree()]
        assert set(degrees) == {2}

    @pytest.mark.parametrize("num_nodes", [100, 600, 1000, 4000, 997])
    def test_grid_has_requested_order_of_nodes(self, num_nodes):
        graph = standard_topology("grid", num_nodes)
        assert graph.number_of_nodes() == num_nodes

    def test_grid_keeps_the_square_layout_where_the_root_divides(self):
        # floor(sqrt(600)) = 24 divides 600: the 24 x 25 torus of before.
        expected = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(24, 25, periodic=True)
        )
        assert nx.utils.graphs_equal(standard_topology("grid", 600), expected)

    def test_grid_of_prime_order_is_a_cycle(self):
        degrees = {degree for _, degree in standard_topology("grid", 997).degree()}
        assert degrees == {2}

    def test_random_regular_degree(self):
        graph = standard_topology("random_regular", 50, random_state=0, degree=6)
        degrees = {degree for _, degree in graph.degree()}
        assert degrees == {6}

    def test_random_regular_degree_capped_at_complete(self):
        graph = standard_topology("random_regular", 5, random_state=0, degree=10)
        assert graph.number_of_edges() == 10  # complete graph on 5 nodes

    def test_erdos_renyi_default_density(self):
        graph = standard_topology("erdos_renyi", 200, random_state=0)
        mean_degree = 2 * graph.number_of_edges() / 200
        assert 10 < mean_degree < 40  # ~4 ln n = 21

    def test_star(self):
        graph = standard_topology("star", 8)
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees == [1] * 7 + [7]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            standard_topology("hypercube-of-doom", 8)

    def test_reproducible_with_seed(self):
        first = standard_topology("erdos_renyi", 60, random_state=3)
        second = standard_topology("erdos_renyi", 60, random_state=3)
        assert nx.utils.graphs_equal(first, second)


class TestGraphPushModel:
    def test_requires_noise_matrix(self):
        with pytest.raises(TypeError):
            GraphPushModel(nx.complete_graph(5), np.eye(2))

    def test_relabels_non_integer_nodes(self, identity3):
        graph = nx.Graph([("a", "b"), ("b", "c")])
        model = GraphPushModel(graph, identity3)
        assert model.num_nodes == 3

    def test_message_conservation_on_connected_graph(self, identity3, rng):
        graph = standard_topology("random_regular", 30, random_state=0, degree=4)
        model = GraphPushModel(graph, identity3, rng)
        opinions = rng.integers(1, 4, size=30)
        received = model.run_phase_from_population(opinions, num_rounds=5)
        assert received.total_messages() == 30 * 5

    def test_isolated_nodes_do_not_push(self, identity3, rng):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        model = GraphPushModel(graph, identity3, rng)
        opinions = np.array([1, 2, 3, 3])
        received = model.run_phase_from_population(opinions, num_rounds=10)
        # Only nodes 0 and 1 have neighbours, so only their 2*10 messages land.
        assert received.total_messages() == 20
        assert received.totals()[2] == 0 and received.totals()[3] == 0

    def test_undecided_nodes_do_not_push(self, identity3, rng):
        graph = nx.complete_graph(10)
        model = GraphPushModel(graph, identity3, rng)
        opinions = np.zeros(10, dtype=int)
        opinions[0] = 2
        received = model.run_phase_from_population(opinions, num_rounds=4)
        assert received.total_messages() == 4
        assert received.opinion_totals()[1] == 4

    def test_messages_stay_on_edges(self, identity3, rng):
        # On a star, every leaf's messages go to the hub and the hub's go to
        # some leaf; leaves never receive from other leaves directly, so the
        # hub receives exactly (n-1) * rounds messages.
        num_nodes = 9
        graph = standard_topology("star", num_nodes)
        model = GraphPushModel(graph, identity3, rng)
        opinions = np.ones(num_nodes, dtype=int)
        received = model.run_phase_from_population(opinions, num_rounds=6)
        hub_received = received.totals()[0]
        assert hub_received == (num_nodes - 1) * 6

    def test_noise_applied_on_edges(self, rng):
        epsilon = 0.3
        noise = uniform_noise_matrix(2, epsilon)
        graph = nx.complete_graph(50)
        model = GraphPushModel(graph, noise, rng)
        opinions = np.ones(50, dtype=int)
        received = model.run_phase_from_population(opinions, num_rounds=50)
        survival = received.opinion_totals()[0] / received.total_messages()
        assert survival == pytest.approx(0.5 + epsilon, abs=0.03)

    def test_population_length_validated(self, identity3, rng):
        model = GraphPushModel(nx.complete_graph(5), identity3, rng)
        with pytest.raises(ValueError):
            model.run_phase_from_population(np.ones(4, dtype=int), 1)

    def test_opinion_range_validated(self, identity3, rng):
        model = GraphPushModel(nx.complete_graph(5), identity3, rng)
        with pytest.raises(ValueError):
            model.run_phase_from_population(np.full(5, 9), 1)

    def test_phase_runs_on_a_grid_of_any_order(self, identity3, rng):
        # 4000 is E14's full-config population; floor(sqrt(4000)) = 63 does
        # not divide it.
        model = GraphPushModel(standard_topology("grid", 4000), identity3, rng)
        received = model.run_phase_from_population(np.ones(4000, dtype=int), 2)
        assert received.total_messages() == 4000 * 2

    def test_degrees_accessor(self, identity3):
        model = GraphPushModel(standard_topology("cycle", 6), identity3)
        assert model.degrees().tolist() == [2] * 6

    def test_complete_graph_matches_uniform_push_statistically(self, rng):
        # On the complete graph the only difference from UniformPushModel is
        # that a node never pushes to itself; for n = 200 that is a 0.5%
        # effect, so aggregate statistics must be very close.
        from repro.network.push_model import UniformPushModel

        noise = uniform_noise_matrix(3, 0.25)
        num_nodes = 200
        opinions = rng.integers(1, 4, size=num_nodes)
        graph_model = GraphPushModel(nx.complete_graph(num_nodes), noise, rng)
        uniform_model = UniformPushModel(num_nodes, noise, rng)
        graph_received = graph_model.run_phase_from_population(opinions, 20)
        uniform_received = uniform_model.run_phase(opinions, 20)
        assert graph_received.total_messages() == uniform_received.total_messages()
        graph_mix = graph_received.opinion_totals() / graph_received.total_messages()
        uniform_mix = (
            uniform_received.opinion_totals() / uniform_received.total_messages()
        )
        assert np.allclose(graph_mix, uniform_mix, atol=0.03)


class TestGraphProtocolIntegration:
    def test_protocol_succeeds_on_dense_random_graph(self, rng):
        from repro.core.protocol import TwoStageProtocol
        from repro.core.state import PopulationState

        noise = uniform_noise_matrix(3, 0.3)
        num_nodes = 500
        graph = standard_topology("random_regular", num_nodes, random_state=1,
                                  degree=64)
        engine = GraphPushModel(graph, noise, rng)
        protocol = TwoStageProtocol(
            num_nodes, noise, epsilon=0.3, engine=engine, random_state=1
        )
        result = protocol.run(PopulationState.single_source(num_nodes, 3, 1))
        assert result.correct_fraction() > 0.9

    def test_protocol_degrades_on_cycle(self, rng):
        from repro.core.protocol import TwoStageProtocol
        from repro.core.state import PopulationState

        noise = uniform_noise_matrix(3, 0.3)
        num_nodes = 400
        engine = GraphPushModel(standard_topology("cycle", num_nodes), noise, rng)
        protocol = TwoStageProtocol(
            num_nodes, noise, epsilon=0.3, engine=engine, random_state=0
        )
        result = protocol.run(PopulationState.single_source(num_nodes, 3, 1))
        assert not result.success

    def test_engine_node_count_mismatch_rejected(self, rng):
        from repro.core.protocol import TwoStageProtocol

        noise = uniform_noise_matrix(3, 0.3)
        engine = GraphPushModel(nx.complete_graph(50), noise, rng)
        with pytest.raises(ValueError):
            TwoStageProtocol(100, noise, epsilon=0.3, engine=engine)
