"""Tests for the ``auto`` engine policy: repro.sim.resolve_trial_engine."""

from __future__ import annotations

import pytest

from repro.sim import (
    DEFAULT_COUNTS_THRESHOLD,
    ENGINE_POLICIES,
    ENGINE_TIERS,
    Scenario,
    resolve_trial_engine,
    set_default_counts_threshold,
    simulate,
)
from repro.sim.facade import _resolve_engine


class TestEngineResolution:
    def test_concrete_names_pass_through(self):
        for engine in ENGINE_TIERS:
            assert resolve_trial_engine(engine, 10) == engine
            assert resolve_trial_engine(engine, 10**9) == engine

    def test_auto_switches_at_the_threshold(self):
        assert resolve_trial_engine("auto", DEFAULT_COUNTS_THRESHOLD - 1) == "batched"
        assert resolve_trial_engine("auto", DEFAULT_COUNTS_THRESHOLD) == "counts"

    def test_auto_boundary_is_inclusive_on_the_counts_side(self):
        """At exactly ``n == counts_threshold`` the counts engine wins.

        The documented semantics are ``>=`` (the threshold is the smallest
        population the n-independent engine serves); this pin keeps the
        boundary from silently drifting to ``>``.
        """
        for threshold in (1, 2, 77, DEFAULT_COUNTS_THRESHOLD):
            assert (
                resolve_trial_engine("auto", threshold, counts_threshold=threshold)
                == "counts"
            )
            assert (
                resolve_trial_engine(
                    "auto", threshold - 1, counts_threshold=threshold
                )
                == "batched"
            )

    def test_facade_auto_resolution_uses_the_same_boundary(self):
        """simulate()'s auto policy resolves through the same boundary."""
        at = Scenario(
            workload="rumor", num_nodes=64, engine="auto", counts_threshold=64
        )
        below = Scenario(
            workload="rumor", num_nodes=63, engine="auto", counts_threshold=64
        )
        assert _resolve_engine(at)[:2] == ("counts", None)
        assert _resolve_engine(below)[:2] == ("batched", None)

    def test_auto_honours_explicit_threshold(self):
        assert resolve_trial_engine("auto", 100, counts_threshold=50) == "counts"
        assert resolve_trial_engine("auto", 100, counts_threshold=500) == "batched"
        with pytest.raises(ValueError):
            resolve_trial_engine("auto", 100, counts_threshold=0)

    def test_auto_honours_process_default_override(self):
        try:
            assert set_default_counts_threshold(10) == 10
            assert resolve_trial_engine("auto", 100) == "counts"
        finally:
            assert (
                set_default_counts_threshold(None) == DEFAULT_COUNTS_THRESHOLD
            )
        assert resolve_trial_engine("auto", 100) == "batched"

    def test_choices_include_auto(self):
        assert "auto" in ENGINE_POLICIES
        with pytest.raises(ValueError):
            resolve_trial_engine("bogus", 10)

    def test_auto_routes_dynamics_trials(self):
        result = simulate(Scenario(
            workload="dynamics", rule="3-majority", num_nodes=300,
            epsilon=0.66, bias=0.3, max_rounds=100, engine="auto",
            counts_threshold=100, num_trials=2, seed=0,
        ))
        assert result.engine == "counts"
        assert result.num_trials == 2
        assert result.rounds.shape == (2,)
