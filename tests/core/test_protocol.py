"""Tests for repro.core.protocol (the full two-stage protocol)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import ProtocolResult, TwoStageProtocol
from repro.core.schedule import ProtocolSchedule
from repro.core.state import PopulationState
from repro.network.balls_bins import BallsIntoBinsProcess
from repro.network.delivery import make_delivery_engine
from repro.network.poisson_model import PoissonizedProcess
from repro.network.push_model import UniformPushModel


class TestMakeDeliveryEngine:
    def test_push_engine(self, uniform3):
        assert isinstance(make_delivery_engine("push", 10, uniform3), UniformPushModel)

    def test_balls_bins_engine(self, uniform3):
        assert isinstance(
            make_delivery_engine("balls_bins", 10, uniform3), BallsIntoBinsProcess
        )

    def test_poisson_engine(self, uniform3):
        assert isinstance(make_delivery_engine("poisson", 10, uniform3), PoissonizedProcess)

    def test_unknown_engine_rejected(self, uniform3):
        with pytest.raises(ValueError):
            make_delivery_engine("carrier-pigeon", 10, uniform3)


class TestTwoStageProtocol:
    def test_requires_schedule_or_epsilon(self, uniform3):
        with pytest.raises(ValueError):
            TwoStageProtocol(100, uniform3)

    def test_node_count_mismatch_rejected(self, uniform3):
        protocol = TwoStageProtocol(100, uniform3, epsilon=0.3)
        wrong = PopulationState.single_source(50, 3, 1)
        with pytest.raises(ValueError):
            protocol.run(wrong)

    def test_opinion_count_mismatch_rejected(self, uniform3):
        protocol = TwoStageProtocol(100, uniform3, epsilon=0.3)
        wrong = PopulationState.single_source(100, 5, 1)
        with pytest.raises(ValueError):
            protocol.run(wrong)

    def test_target_opinion_required_when_all_undecided(self, uniform3):
        protocol = TwoStageProtocol(100, uniform3, epsilon=0.3)
        with pytest.raises(ValueError):
            protocol.run(PopulationState.all_undecided(100, 3))

    def test_rumor_run_succeeds(self, uniform3):
        protocol = TwoStageProtocol(800, uniform3, epsilon=0.3, random_state=0)
        initial = PopulationState.single_source(800, 3, 2)
        result = protocol.run(initial)
        assert result.success
        assert result.target_opinion == 2
        assert result.final_state.has_consensus_on(2)

    def test_explicit_schedule_used(self, uniform3):
        schedule = ProtocolSchedule.for_population(400, 0.3, round_scale=0.5)
        protocol = TwoStageProtocol(
            400, uniform3, schedule=schedule, random_state=0
        )
        initial = PopulationState.single_source(400, 3, 1)
        result = protocol.run(initial)
        assert result.total_rounds == schedule.total_rounds

    def test_total_rounds_is_sum_of_stage_records(self, uniform3):
        protocol = TwoStageProtocol(500, uniform3, epsilon=0.3, random_state=1)
        result = protocol.run(PopulationState.single_source(500, 3, 1))
        assert result.total_rounds == result.stage1_rounds + result.stage2_rounds

    def test_reproducible_with_seed(self, uniform3):
        initial = PopulationState.single_source(400, 3, 1)
        first = TwoStageProtocol(400, uniform3, epsilon=0.3, random_state=11).run(
            initial
        )
        second = TwoStageProtocol(400, uniform3, epsilon=0.3, random_state=11).run(
            initial
        )
        assert np.array_equal(first.final_state.opinions, second.final_state.opinions)
        assert first.total_rounds == second.total_rounds

    def test_runs_under_every_delivery_process(self, uniform3):
        for process in ("push", "balls_bins", "poisson"):
            protocol = TwoStageProtocol(
                500, uniform3, epsilon=0.3, process=process, random_state=2
            )
            result = protocol.run(PopulationState.single_source(500, 3, 1))
            assert result.success, f"protocol failed under process {process!r}"

    def test_stop_at_consensus_shortens_run(self, uniform3):
        initial = PopulationState.single_source(500, 3, 1)
        full = TwoStageProtocol(500, uniform3, epsilon=0.3, random_state=3).run(
            initial
        )
        early = TwoStageProtocol(500, uniform3, epsilon=0.3, random_state=3).run(
            initial, stop_at_consensus=True
        )
        assert early.total_rounds <= full.total_rounds
        assert early.success


class TestProtocolResult:
    @pytest.fixture
    def result(self, uniform3) -> ProtocolResult:
        protocol = TwoStageProtocol(600, uniform3, epsilon=0.3, random_state=4)
        return protocol.run(PopulationState.single_source(600, 3, 1))

    def test_bias_trajectory_monotone_tail(self, result):
        trajectory = result.bias_trajectory()
        assert trajectory.size > 0
        assert trajectory[-1] == pytest.approx(1.0)

    def test_final_bias_matches_state(self, result):
        assert result.final_bias == pytest.approx(
            result.final_state.bias_toward(result.target_opinion)
        )

    def test_correct_fraction_is_one_on_success(self, result):
        assert result.success
        assert result.correct_fraction() == pytest.approx(1.0)

    def test_stage_accessors(self, result):
        assert result.opinionated_after_stage1 == 600
        assert result.bias_after_stage1 is not None
        assert result.stage1_rounds > 0
        assert result.stage2_rounds > 0
