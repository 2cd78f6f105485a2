"""Tests for the analytic protocol tier: the exact state distribution.

The exact tier is checked against first principles (normalization, the
noise-free limit, tractability gating).  Distribution-level agreement
with the *sampling* tiers lives in
``tests/integration/test_engine_agreement.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analytic import (
    AnalyticProtocol,
    AnalyticProtocolResult,
    exact_protocol_is_tractable,
)
from repro.noise.families import identity_matrix, uniform_noise_matrix


class TestTractabilityGate:
    def test_small_instance_is_tractable(self):
        assert exact_protocol_is_tractable(14, 2, 0.3)

    def test_state_budget_rejects_large_populations(self):
        assert not exact_protocol_is_tractable(300, 3, 0.3)

    def test_vote_table_budget_rejects_high_precision(self):
        # eps = 0.01 drives the final Stage-2 sample size L' ~ log n / eps^2
        # far past the closed-form maj() composition-table budget even
        # though n = 40 is well within the state budget.
        assert not exact_protocol_is_tractable(40, 2, 0.01)


class TestAnalyticProtocol:
    NOISE = uniform_noise_matrix(2, 0.3)

    def test_requires_epsilon_or_schedule(self):
        with pytest.raises(ValueError, match="schedule or epsilon"):
            AnalyticProtocol(14, self.NOISE)

    def test_initial_distribution_is_a_point_mass(self):
        protocol = AnalyticProtocol(14, self.NOISE, epsilon=0.3)
        distribution = protocol.initial_distribution(np.array([1, 0]))
        assert distribution.sum() == pytest.approx(1.0)
        assert np.count_nonzero(distribution) == 1

    def test_initial_distribution_rejects_off_simplex_counts(self):
        protocol = AnalyticProtocol(14, self.NOISE, epsilon=0.3)
        with pytest.raises(ValueError, match="not a valid"):
            protocol.initial_distribution(np.array([10, 9]))

    def test_run_returns_expected_fields(self):
        result = AnalyticProtocol(14, self.NOISE, epsilon=0.3).run(
            np.array([1, 0])
        )
        assert isinstance(result, AnalyticProtocolResult)
        assert result.method == "exact"
        assert 0.0 <= result.success_probability <= 1.0
        assert (
            result.success_probability
            <= result.convergence_probability + 1e-12
        )
        assert result.target_opinion == 1
        assert result.phase_biases.shape[0] >= result.stage1_phases
        assert (
            result.phase_biases[result.stage1_phases - 1]
            == pytest.approx(result.expected_bias_after_stage1)
        )
        assert result.expected_final_counts.sum() <= 14 + 1e-9
        assert result.state_space_size is not None

    def test_noise_free_run_succeeds_almost_surely(self):
        # With identity noise only the planted color ever circulates, so
        # the exact distribution must end (essentially) fully absorbed at
        # the all-target consensus state.
        result = AnalyticProtocol(14, identity_matrix(2), epsilon=0.3).run(
            np.array([1, 0])
        )
        assert result.success_probability == pytest.approx(1.0, abs=1e-9)
        assert result.convergence_probability == pytest.approx(1.0, abs=1e-9)

    def test_stage1_phase_preserves_normalization(self):
        protocol = AnalyticProtocol(14, self.NOISE, epsilon=0.3)
        distribution = protocol.initial_distribution(np.array([3, 1]))
        evolved = protocol.evolve_stage1_phase(distribution, 8)
        assert evolved.sum() == pytest.approx(1.0)
        assert np.all(evolved >= -1e-15)

    def test_stage2_phase_preserves_normalization(self):
        protocol = AnalyticProtocol(14, self.NOISE, epsilon=0.3)
        distribution = protocol.initial_distribution(np.array([9, 3]))
        evolved = protocol.evolve_stage2_phase(distribution, 6, 5)
        assert evolved.sum() == pytest.approx(1.0)
        assert np.all(evolved >= -1e-15)

    def test_run_rejects_population_beyond_state_budget(self):
        protocol = AnalyticProtocol(300, uniform_noise_matrix(3, 0.3), epsilon=0.3)
        with pytest.raises(ValueError, match="use engine='counts'"):
            protocol.run(np.array([1, 0, 0]))

    def test_run_rejects_intractable_stage2_vote_table(self):
        # n = 40 with eps = 0.3 and 3 opinionated seeds schedules a final
        # Stage-2 sample size past the maj() table budget (see the
        # tractability gate) — run() must refuse rather than approximate.
        protocol = AnalyticProtocol(40, self.NOISE, epsilon=0.3)
        assert not exact_protocol_is_tractable(
            40, 2, 0.3, initial_opinionated=3
        )
        with pytest.raises(ValueError, match="maj\\(\\) table"):
            protocol.run(np.array([3, 0]))

    def test_run_requires_an_opinionated_node_for_target_inference(self):
        protocol = AnalyticProtocol(14, self.NOISE, epsilon=0.3)
        with pytest.raises(ValueError, match="no opinionated node"):
            protocol.run(np.array([0, 0]))
