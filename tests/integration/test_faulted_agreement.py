"""Cross-engine agreement under fault injection.

Every adversary (crash, omission, random-liar and the adaptive
runner-up targeter) emits a function of the honest senders' ``(R, k)``
histogram, so the counts tier is exact for all of them and the three
sampling tiers must stay statistically indistinguishable on faulted runs
exactly as they are on fault-free ones:

* **success-rate agreement** at ``f in {0.05, 0.2}`` across all three
  tiers, bounded by a four-sigma binomial tolerance on the smallest
  sample (the same methodology as the fault-free protocol agreement
  suite);
* **KS cross-checks** on the per-trial final-bias distributions (counts
  vs batched, alpha = 0.001 closed-form critical value);
* **TVD cross-checks** at a small scale where the full honest count-state
  distribution is enumerable: the counts and batched empirical final-state
  distributions must be within the *sum* of their sampling TVD thresholds
  (triangle inequality through the common true distribution — a
  distribution-free bound, so a failure is an engine bug).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytic import (
    empirical_state_distribution,
    sampling_tvd_threshold,
    state_space_size,
    total_variation_distance,
    wilson_interval,
)
from repro.core.protocol import (
    CountsProtocolTask,
    EnsembleProtocol,
    run_heterogeneous_counts_protocol,
)
from repro.core.state import PopulationState
from repro.faults import FaultedDeliveryEngine, FaultedPhaseSampler, FaultModel
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate

pytestmark = pytest.mark.agreement

#: c(alpha) of the two-sample KS critical value at alpha = 0.001.
KS_COEFFICIENT_001 = 1.9495

FAULT_CASES = [
    (FaultModel(kind="crash", fraction=0.05, crash_round=3), "crash:0.05"),
    (FaultModel(kind="crash", fraction=0.2, crash_round=3), "crash:0.2"),
    (FaultModel(kind="omission", fraction=0.05, drop_rate=0.5), "omission:0.05"),
    (FaultModel(kind="omission", fraction=0.2, drop_rate=0.5), "omission:0.2"),
    (FaultModel(kind="liar", fraction=0.05), "liar:0.05"),
    (FaultModel(kind="liar", fraction=0.2), "liar:0.2"),
    (FaultModel(kind="adaptive", fraction=0.05), "adaptive:0.05"),
    (FaultModel(kind="adaptive", fraction=0.2), "adaptive:0.2"),
]


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    sample_a = np.sort(np.asarray(sample_a, float))
    sample_b = np.sort(np.asarray(sample_b, float))
    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, grid, side="right") / sample_b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(size_a: int, size_b: int) -> float:
    return KS_COEFFICIENT_001 * np.sqrt((size_a + size_b) / (size_a * size_b))


def faulted_scenario(workload, faults, engine, num_trials, seed=11):
    return Scenario(
        workload=workload, num_nodes=60, num_opinions=3, epsilon=0.3,
        bias=0.3 if workload == "plurality" else 0.0,
        engine=engine, num_trials=num_trials, seed=seed, faults=faults,
    )


class TestFaultTierAgreement:
    """All three sampling tiers on every adversary family."""

    COUNTS_TRIALS = 600
    BATCHED_TRIALS = 300
    SEQUENTIAL_TRIALS = 40

    @pytest.mark.parametrize(
        "faults", [case for case, _ in FAULT_CASES],
        ids=[label for _, label in FAULT_CASES],
    )
    @pytest.mark.parametrize("workload", ["rumor", "plurality"])
    def test_success_rates_agree_across_tiers(self, workload, faults):
        rates = {}
        smallest = self.SEQUENTIAL_TRIALS
        for engine, trials in (
            ("counts", self.COUNTS_TRIALS),
            ("batched", self.BATCHED_TRIALS),
            ("sequential", self.SEQUENTIAL_TRIALS),
        ):
            result = simulate(faulted_scenario(workload, faults, engine, trials))
            assert result.num_trials == trials
            assert result.provenance["engine"] == engine
            assert "engine_degraded_reason" not in result.provenance
            rates[engine] = result.success_count / trials
        tolerance = 4.0 * np.sqrt(0.25 / smallest)
        assert max(rates.values()) - min(rates.values()) <= tolerance, (
            f"{faults.kind} f={faults.fraction}: success rates spread "
            f"beyond the four-sigma tolerance: {rates}"
        )

    @pytest.mark.parametrize(
        "faults", [case for case, _ in FAULT_CASES],
        ids=[label for _, label in FAULT_CASES],
    )
    def test_wilson_intervals_overlap_counts_vs_batched(self, faults):
        counts = simulate(
            faulted_scenario("rumor", faults, "counts", self.COUNTS_TRIALS)
        )
        batched = simulate(
            faulted_scenario("rumor", faults, "batched", self.BATCHED_TRIALS)
        )
        low_c, high_c = wilson_interval(counts.success_count, counts.num_trials)
        low_b, high_b = wilson_interval(
            batched.success_count, batched.num_trials
        )
        assert max(low_c, low_b) <= min(high_c, high_b), (
            f"{faults.kind} f={faults.fraction}: disjoint Wilson 99.9% "
            f"intervals [{low_c:.3f}, {high_c:.3f}] vs "
            f"[{low_b:.3f}, {high_b:.3f}]"
        )


class TestFaultedFinalStateTVD:
    """Counts vs batched final honest-state distributions at small scale.

    ``n = 20, k = 2`` with ``f = 0.2`` leaves 16 honest nodes, so the
    honest count simplex has C(18, 2) = 171 states — enumerable, and the
    empirical-vs-empirical TVD bound (sum of the two sampling thresholds)
    is tight enough to catch a mis-injected adversary.
    """

    NUM_NODES = 20
    NUM_OPINIONS = 2
    EPSILON = 0.4
    COUNTS_TRIALS = 3000
    BATCHED_TRIALS = 1500

    @pytest.mark.parametrize(
        "faults",
        [
            FaultModel(kind="crash", fraction=0.2, crash_round=2),
            FaultModel(kind="omission", fraction=0.2, drop_rate=0.5),
            FaultModel(kind="liar", fraction=0.2),
            FaultModel(kind="adaptive", fraction=0.1),
            FaultModel(kind="adaptive", fraction=0.2),
        ],
        ids=["crash", "omission", "liar", "adaptive:0.1", "adaptive:0.2"],
    )
    def test_counts_vs_batched_final_states(self, faults):
        scenario = Scenario(
            workload="plurality", num_nodes=self.NUM_NODES,
            num_opinions=self.NUM_OPINIONS, epsilon=self.EPSILON,
            shares=(0.6, 0.4), engine="counts", num_trials=1, seed=5,
            faults=faults,
        )
        noise = uniform_noise_matrix(self.NUM_OPINIONS, self.EPSILON)
        honest, faulty_histogram = scenario.fault_split()
        num_faulty = scenario.faulty_count()

        (counts_result,) = run_heterogeneous_counts_protocol([
            CountsProtocolTask(
                num_nodes=honest.num_nodes,
                noise=noise,
                initial_state=honest,
                num_trials=self.COUNTS_TRIALS,
                epsilon=self.EPSILON,
                target_opinion=1,
                random_state=7,
                fault_sampler=FaultedPhaseSampler(
                    faults, num_faulty, faulty_histogram, self.NUM_OPINIONS
                ),
            )
        ])

        initial = PopulationState.from_counts(
            honest.num_nodes,
            {
                opinion + 1: int(count)
                for opinion, count in enumerate(honest.counts)
                if count
            },
            self.NUM_OPINIONS,
            random_state=0,
        )
        batched_result = EnsembleProtocol(
            honest.num_nodes, noise, epsilon=self.EPSILON, random_state=8,
            engine=FaultedDeliveryEngine(
                honest.num_nodes, self.NUM_NODES, noise,
                FaultedPhaseSampler(
                    faults, num_faulty, faulty_histogram, self.NUM_OPINIONS
                ),
            ),
        ).run(initial, self.BATCHED_TRIALS, target_opinion=1)

        states = state_space_size(honest.num_nodes, self.NUM_OPINIONS)
        counts_empirical = empirical_state_distribution(
            np.asarray(counts_result.final_states.counts, dtype=np.int64),
            honest.num_nodes, self.NUM_OPINIONS,
        )
        batched_empirical = empirical_state_distribution(
            batched_result.final_states.opinion_counts(),
            honest.num_nodes, self.NUM_OPINIONS,
        )
        threshold = sampling_tvd_threshold(
            states, self.COUNTS_TRIALS
        ) + sampling_tvd_threshold(states, self.BATCHED_TRIALS)
        tvd = total_variation_distance(counts_empirical, batched_empirical)
        assert tvd < threshold, (
            f"{faults.kind}: counts-vs-batched final-state TVD {tvd:.4f} "
            f"exceeds the combined sampling threshold {threshold:.4f}"
        )


class TestAdaptiveOnCounts:
    """The adaptive adversary runs on the counts tier it resolves to."""

    def test_counts_policy_runs_on_counts(self):
        faults = FaultModel(kind="adaptive", fraction=0.1)
        result = simulate(faulted_scenario("plurality", faults, "counts", 8))
        assert result.provenance["engine"] == "counts"
        assert "engine_degraded_reason" not in result.provenance

    def test_auto_policy_above_threshold_resolves_counts(self):
        faults = FaultModel(kind="adaptive", fraction=0.1)
        scenario = Scenario(
            workload="rumor", num_nodes=120, num_opinions=3, epsilon=0.3,
            engine="auto", counts_threshold=50, num_trials=4, seed=3,
            faults=faults,
        )
        result = simulate(scenario)
        assert result.provenance["engine"] == "counts"
        assert "engine_degraded_reason" not in result.provenance

    def test_adaptive_batched_vs_sequential_agreement(self):
        faults = FaultModel(kind="adaptive", fraction=0.2)
        batched = simulate(faulted_scenario("rumor", faults, "batched", 200))
        sequential = simulate(
            faulted_scenario("rumor", faults, "sequential", 40)
        )
        rate_b = batched.success_count / batched.num_trials
        rate_s = sequential.success_count / sequential.num_trials
        tolerance = 4.0 * np.sqrt(0.25 / sequential.num_trials)
        assert abs(rate_b - rate_s) <= tolerance, (
            f"adaptive: batched {rate_b:.3f} vs sequential {rate_s:.3f} "
            f"beyond the four-sigma tolerance {tolerance:.3f}"
        )
