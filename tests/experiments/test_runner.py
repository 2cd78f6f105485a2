"""Tests for repro.experiments.runner (stage helpers and summaries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import CountsState
from repro.experiments.runner import (
    stage1_trial_trajectories,
    stage2_trial_trajectories,
    summarize,
    sweep_product,
)
from repro.experiments.workloads import (
    biased_population,
    ensemble_biased_population,
    rumor_instance,
)
from repro.noise.families import uniform_noise_matrix

#: The sampling tiers the stage helpers run on.
TRIAL_TIERS = ("batched", "sequential", "counts")


class TestSweepProduct:
    def test_cartesian_product(self):
        grid = sweep_product(n=[10, 20], eps=[0.1, 0.2])
        assert len(grid) == 4
        assert {"n": 20, "eps": 0.1} in grid

    def test_empty_sweep(self):
        assert sweep_product() == [{}]

    def test_single_axis(self):
        assert sweep_product(x=[1, 2, 3]) == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_preserves_order(self):
        grid = sweep_product(a=[1, 2], b=["x"])
        assert grid[0] == {"a": 1, "b": "x"}
        assert grid[1] == {"a": 2, "b": "x"}


class TestSummarize:
    def test_statistics(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["std"] == pytest.approx(1.0)

    def test_single_value_has_zero_std(self):
        assert summarize([4.2])["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestStage1TrialTrajectories:
    NUM_NODES = 300
    EPSILON = 0.35

    def run_engine(self, trial_engine, num_trials=3, random_state=0):
        noise = uniform_noise_matrix(3, self.EPSILON)
        return stage1_trial_trajectories(
            rumor_instance(self.NUM_NODES, 3, 1),
            noise,
            self.EPSILON,
            num_trials,
            random_state,
            track_opinion=1,
            trial_engine=trial_engine,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_TIERS)
    def test_shapes_and_phase_axis(self, trial_engine):
        result = self.run_engine(trial_engine)
        num_phases = len(result.phase_lengths)
        assert num_phases >= 2
        assert result.opinionated_fractions.shape == (3, num_phases)
        assert result.biases.shape == (3, num_phases)
        assert result.num_trials == 3
        assert result.total_rounds == sum(result.phase_lengths)

    @pytest.mark.parametrize("trial_engine", TRIAL_TIERS)
    def test_fractions_grow_to_one(self, trial_engine):
        """Stage 1 opinionates everyone (Lemma 6): the per-phase fraction is
        non-decreasing per trial and ends at 1 at this easy scale."""
        result = self.run_engine(trial_engine)
        fractions = result.opinionated_fractions
        assert np.all(np.diff(fractions, axis=1) >= -1e-12)
        assert fractions[:, -1] == pytest.approx(1.0)

    @pytest.mark.parametrize("trial_engine", TRIAL_TIERS)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=5)
        second = self.run_engine(trial_engine, random_state=5)
        np.testing.assert_array_equal(
            first.opinionated_fractions, second.opinionated_fractions
        )
        np.testing.assert_array_equal(first.biases, second.biases)

    def test_engines_share_the_schedule(self):
        lengths = {
            engine: self.run_engine(engine, num_trials=2).phase_lengths
            for engine in TRIAL_TIERS
        }
        assert len(set(lengths.values())) == 1

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            self.run_engine("bogus")


class TestStage2TrialTrajectories:
    NUM_NODES = 400
    EPSILON = 0.35

    def run_engine(
        self,
        trial_engine,
        num_trials=3,
        random_state=0,
        initial_state=None,
        **kwargs,
    ):
        noise = uniform_noise_matrix(3, self.EPSILON)
        if initial_state is None:
            initial_state = biased_population(
                self.NUM_NODES, 3, 0.2, random_state=123
            )
        return stage2_trial_trajectories(
            initial_state,
            noise,
            self.EPSILON,
            num_trials,
            random_state,
            track_opinion=1,
            trial_engine=trial_engine,
            **kwargs,
        )

    @pytest.mark.parametrize("trial_engine", TRIAL_TIERS)
    def test_shapes_and_consensus(self, trial_engine):
        result = self.run_engine(trial_engine)
        num_phases = len(result.phase_lengths)
        assert len(result.sample_sizes) == num_phases
        assert result.biases.shape == (3, num_phases)
        assert result.consensus.shape == (3,)
        # A 0.2-bias start at this scale amplifies to consensus (Lemma 12).
        assert result.consensus.all()
        assert result.final_biases == pytest.approx(1.0)

    @pytest.mark.parametrize("trial_engine", TRIAL_TIERS)
    def test_reproducible_with_fixed_seed(self, trial_engine):
        first = self.run_engine(trial_engine, random_state=5)
        second = self.run_engine(trial_engine, random_state=5)
        np.testing.assert_array_equal(first.biases, second.biases)
        np.testing.assert_array_equal(first.consensus, second.consensus)

    @pytest.mark.parametrize("trial_engine", ("batched", "sequential"))
    def test_accepts_per_trial_ensemble_and_ablation_knobs(self, trial_engine):
        ensemble = ensemble_biased_population(
            self.NUM_NODES, 3, 0.2, 3, random_state=7
        )
        result = self.run_engine(
            trial_engine,
            initial_state=ensemble,
            sampling_method="with_replacement",
        )
        assert result.biases.shape[0] == 3

    def test_counts_rejects_ablation_knobs(self):
        with pytest.raises(ValueError, match="batched or"):
            self.run_engine("counts", sampling_method="with_replacement")
        with pytest.raises(ValueError, match="batched or"):
            self.run_engine("counts", use_full_multiset=True)

    def test_rejects_num_trials_mismatch_for_ensemble_state(self):
        ensemble = ensemble_biased_population(
            self.NUM_NODES, 3, 0.2, 4, random_state=7
        )
        with pytest.raises(ValueError, match="disagrees"):
            self.run_engine("batched", num_trials=2, initial_state=ensemble)


class TestCountsNativeStates:
    def test_counts_native_states_always_resolve_to_counts(self):
        """Counts-native inputs carry no per-node information: 'auto' must
        pick the counts engine even below the threshold, and explicit
        per-node engines must be rejected with a clear error."""
        noise = uniform_noise_matrix(3, 0.35)
        source = CountsState.single_source(250, 3, 1)
        opinionated = CountsState([150, 90, 60], 300)
        stage1 = stage1_trial_trajectories(
            source, noise, 0.35, 2, 0, trial_engine="auto"
        )
        assert stage1.num_trials == 2
        stage2 = stage2_trial_trajectories(
            opinionated, noise, 0.35, 2, 0, trial_engine="auto"
        )
        assert stage2.num_trials == 2
        for engine in ("batched", "sequential"):
            with pytest.raises(ValueError, match="per-node"):
                stage1_trial_trajectories(
                    source, noise, 0.35, 2, 0, trial_engine=engine
                )
            with pytest.raises(ValueError, match="per-node"):
                stage2_trial_trajectories(
                    opinionated, noise, 0.35, 2, 0, trial_engine=engine
                )

    def test_analytic_engine_rejected(self):
        with pytest.raises(ValueError, match="analytic"):
            stage1_trial_trajectories(
                rumor_instance(100, 3, 1), uniform_noise_matrix(3, 0.35),
                0.35, 2, 0, trial_engine="analytic",
            )
