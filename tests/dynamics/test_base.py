"""Tests for repro.dynamics.base.OpinionDynamics / DynamicsResult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import PopulationState
from repro.dynamics.base import OpinionDynamics
from repro.dynamics.voter import VoterDynamics
from repro.noise.families import uniform_noise_matrix
from repro.sim.engines import build_dynamics


class ConstantDynamics(OpinionDynamics):
    """A trivial dynamic that forces every node to opinion 1 (test double)."""

    name = "constant"

    def step(self, state: PopulationState) -> None:
        state.opinions[:] = 1


class TestRunLoop:
    def test_abstract_base_cannot_be_instantiated(self, identity3):
        with pytest.raises(TypeError):
            OpinionDynamics(10, identity3)

    def test_state_size_mismatch_rejected(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        with pytest.raises(ValueError):
            dynamic.run(PopulationState.all_undecided(5, 3), 10)

    def test_state_opinion_mismatch_rejected(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        with pytest.raises(ValueError):
            dynamic.run(PopulationState.all_undecided(10, 5), 10)

    def test_max_rounds_validation(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        with pytest.raises(ValueError):
            dynamic.run(PopulationState.all_undecided(10, 3), 0)

    def test_stops_at_consensus(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {2: 5, 3: 5}, 3, rng)
        result = dynamic.run(initial, 50)
        assert result.converged
        assert result.consensus_opinion == 1
        assert result.rounds_executed == 1

    def test_no_early_stop_when_disabled(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {2: 5, 3: 5}, 3, rng)
        result = dynamic.run(initial, 7, stop_at_consensus=False)
        assert result.rounds_executed == 7

    def test_initial_state_not_mutated(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {2: 5, 3: 5}, 3, rng)
        snapshot = initial.opinions.copy()
        dynamic.run(initial, 5)
        assert np.array_equal(initial.opinions, snapshot)

    def test_success_requires_target_opinion(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {2: 6, 3: 4}, 3, rng)
        result = dynamic.run(initial, 5, target_opinion=2)
        assert result.converged and not result.success

    def test_bias_history_recorded(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {1: 6, 2: 4}, 3, rng)
        result = dynamic.run(initial, 5, stop_at_consensus=False)
        assert len(result.bias_history) == 5
        assert result.bias_history[0] == pytest.approx(1.0)

    def test_history_can_be_disabled(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {1: 6, 2: 4}, 3, rng)
        result = dynamic.run(
            initial, 5, record_history=False, stop_at_consensus=False
        )
        assert result.bias_history == []

    def test_target_defaults_to_initial_plurality(self, identity3, rng):
        dynamic = ConstantDynamics(10, identity3, rng)
        initial = PopulationState.from_counts(10, {1: 6, 2: 4}, 3, rng)
        result = dynamic.run(initial, 5)
        assert result.target_opinion == 1
        assert result.success

    def test_num_opinions_property(self, uniform3, rng):
        assert VoterDynamics(10, uniform3, rng).num_opinions == 3


@pytest.mark.parametrize("tier", ["sequential", "batched", "counts"])
@pytest.mark.parametrize("target_opinion", [-1, 4])
def test_out_of_range_target_opinion_rejected(tier, target_opinion):
    dynamic = build_dynamics(tier, "voter", 20, uniform_noise_matrix(3, 0.3), 0)
    initial = PopulationState.from_counts(20, {1: 10, 2: 6, 3: 4}, 3, 0)
    trials = () if tier == "sequential" else (2,)
    with pytest.raises(
        ValueError,
        match=rf"target_opinion must be in \[0, 3\], got {target_opinion}",
    ):
        dynamic.run(initial, 5, *trials, target_opinion=target_opinion)
