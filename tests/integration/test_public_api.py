"""Tests of the top-level public API surface (``import repro``)."""

from __future__ import annotations

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"

    def test_quickstart_snippet_from_module_docstring(self):
        # The README / module docstring quickstart must keep working verbatim.
        noise = repro.uniform_noise_matrix(num_opinions=4, epsilon=0.3)
        result = repro.RumorSpreading(
            num_nodes=2000,
            num_opinions=4,
            noise=noise,
            epsilon=0.3,
            correct_opinion=2,
            random_state=0,
        ).run()
        assert result.success

    def test_noise_helpers_exported(self):
        report = repro.check_majority_preserving(
            repro.uniform_noise_matrix(3, 0.2), 0.2, 0.1
        )
        assert report.is_majority_preserving
        epsilon = repro.epsilon_for_delta(repro.binary_flip_matrix(0.2), 0.1)
        assert epsilon == pytest.approx(0.4, abs=1e-6)

    def test_memory_helpers_exported(self):
        schedule = repro.ProtocolSchedule.for_population(1000, 0.2)
        usage = repro.protocol_memory_usage(schedule, 3)
        assert usage.total_bits > 0
        assert repro.memory_bound_bits(1000, 0.2, 3) > 0
