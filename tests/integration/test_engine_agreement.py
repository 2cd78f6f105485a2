"""Statistical agreement of the sequential / batched / counts engines.

The three engine tiers implement the same processes at different levels of
aggregation, so their statistics must agree:

* the **dynamics** tiers are all exact in distribution (per-message
  sampling, compound-channel sampling, grouped multinomials), so one-round
  outcome distributions and multi-round summaries must match up to
  sampling noise;
* the **protocol** counts tier replaces the balls-into-bins throw with its
  Poissonized summary (Definition 4); Lemma 2 makes the phase statistics
  close, and the end-of-stage summaries (Stage-1 bias, success rate,
  final bias) must be statistically indistinguishable at these scales.

Test methodology (documented so CI stays deterministic):

* fixed seeds everywhere — each assertion is a deterministic computation;
* **chi-square cross-checks**: one synchronous round from a fixed initial
  state makes every node's outcome independent, so pooling the end-of-round
  category counts (undecided, opinion 1..k) over trials yields two
  multinomial samples; the two-sample chi-square statistic is compared
  against the alpha = 0.001 critical value for its degrees of freedom.
  (For the protocol phase check the counts engine's aggregate has slightly
  *higher* per-trial variance than process O — the Poissonized total
  fluctuates — which only makes this pooled test conservative.)
* **KS cross-checks**: per-trial summary statistics (final bias, Stage-1
  bias) are compared with the two-sample Kolmogorov-Smirnov statistic
  against the closed-form alpha = 0.001 critical value
  ``c(alpha) * sqrt((m + n) / (m * n))`` with ``c(0.001) ~= 1.9495``;
  ties (the statistics live on a ``1/n`` grid) only make the test
  conservative.

With ~20 independent checks at alpha = 0.001 the probability of any false
alarm under fixed seeds is zero (deterministic) and under reseeding ~2%.

Exact-reference verification (the analytic tier)
------------------------------------------------

Wherever the exact Markov kernel is tractable (small ``n * k``; see
``repro.analytic.states_within_budget``) the sampled-vs-sampled
comparisons above are superseded by sampled-vs-**exact** checks against
the analytic engine tier:

* **one-round TVD**: the total variation distance between the exact
  one-round transition distribution
  (``ExactDynamicsChain.one_round_distribution``) and each sampling
  tier's empirical distribution over count states must stay below
  ``sampling_tvd_threshold(S, R)`` — a distribution-free bound
  (Cauchy-Schwarz expectation term plus a McDiarmid alpha = 0.001
  deviation term) that holds for *any* true distribution, so a failure
  is an engine bug, not sampling noise.  Asserted for all five dynamics
  rules and the two-stage protocol's phase evolutions.
* **Wilson success probabilities**: the exact absorption probability is
  asserted to lie in each sampling tier's Wilson 99.9% score interval
  for the empirical success rate.

The dynamics tiers are exact in distribution, so those checks carry no
slack beyond sampling error.  The protocol analytic tier replaces the
sampled noisy histogram with its expectation (and Stage-2's nonlinear
``maj()`` drops the cross-node recoloring correlation), so protocol
checks carry a small *documented* approximation margin,
:data:`PROTOCOL_TVD_MARGIN` / :data:`PROTOCOL_SUCCESS_MARGIN`; the
margins are calibrated empirically (the bias shrinks as epsilon grows
and as the distribution concentrates near consensus).

The classes above this harness keep running at large ``n`` where the
exact kernel is intractable — there sampled-vs-sampled remains the only
available cross-check.
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
from repro.core.analytic import AnalyticProtocol
from repro.core.protocol import CountsProtocol, EnsembleProtocol, TwoStageProtocol
from repro.core.state import CountsState, PopulationState
from repro.dynamics.analytic import ExactDynamicsChain
from repro.experiments.workloads import biased_population, rumor_instance
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate
from repro.sim.engines import build_dynamics

pytestmark = pytest.mark.agreement

#: Upper alpha = 0.001 critical values of the chi-square distribution.
CHI2_CRITICAL_001 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}

#: c(alpha) of the two-sample KS critical value at alpha = 0.001:
#: sqrt(-ln(alpha / 2) / 2).
KS_COEFFICIENT_001 = 1.9495

ALL_RULES = [
    ("voter", None),
    ("3-majority", None),
    ("h-majority", 5),
    ("undecided-state", None),
    ("median-rule", None),
]


def two_sample_chi_square(observed_a: np.ndarray, observed_b: np.ndarray):
    """The two-sample chi-square statistic and its degrees of freedom.

    ``observed_a`` / ``observed_b`` are category-count vectors (possibly
    with different totals).  Cells empty in both samples are dropped.
    """
    observed = np.stack(
        [np.asarray(observed_a, float), np.asarray(observed_b, float)]
    )
    observed = observed[:, observed.sum(axis=0) > 0]
    row_totals = observed.sum(axis=1, keepdims=True)
    column_totals = observed.sum(axis=0, keepdims=True)
    expected = row_totals * column_totals / observed.sum()
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, observed.shape[1] - 1


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic."""
    sample_a = np.sort(np.asarray(sample_a, float))
    sample_b = np.sort(np.asarray(sample_b, float))
    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, grid, side="right") / sample_b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(size_a: int, size_b: int) -> float:
    return KS_COEFFICIENT_001 * np.sqrt(
        (size_a + size_b) / (size_a * size_b)
    )


def pooled_category_counts_counts_engine(rule, sample_size, num_nodes, noise,
                                         initial, trials, seed):
    """Pooled end-of-one-round category counts from the counts engine."""
    result = build_dynamics(
        "counts", rule, num_nodes, noise, seed, sample_size=sample_size
    ).run(initial, 1, trials, target_opinion=1, stop_at_consensus=False,
          record_history=False)
    per_opinion = result.final_states.counts.sum(axis=0)
    undecided = result.final_states.undecided_counts().sum()
    return np.concatenate([[undecided], per_opinion])


def pooled_category_counts_batched_engine(rule, sample_size, num_nodes, noise,
                                          initial, trials, seed):
    """Pooled end-of-one-round category counts from the batched engine."""
    result = build_dynamics(
        "batched", rule, num_nodes, noise, seed, sample_size=sample_size
    ).run(initial, 1, trials, target_opinion=1, stop_at_consensus=False,
          record_history=False)
    per_opinion = result.final_states.opinion_counts().sum(axis=0)
    undecided = trials * num_nodes - per_opinion.sum()
    return np.concatenate([[undecided], per_opinion])


def pooled_category_counts_sequential_engine(rule, sample_size, num_nodes,
                                             noise, initial, trials, seed):
    """Pooled end-of-one-round category counts from the sequential engine."""
    pooled = np.zeros(noise.num_opinions + 1, dtype=np.int64)
    for trial in range(trials):
        result = build_dynamics(
            "sequential", rule, num_nodes, noise, seed + trial, sample_size=sample_size
        ).run(initial, 1, target_opinion=1, stop_at_consensus=False,
              record_history=False)
        pooled += np.bincount(
            result.final_state.opinions, minlength=noise.num_opinions + 1
        )
    return pooled


class TestDynamicsOneRoundAgreement:
    """Chi-square cross-checks of the per-round count distributions.

    One round from a fixed, partially-undecided initial state; all five
    rules; counts engine vs. both per-node engines.
    """

    NUM_NODES = 400
    POOL_TRIALS = 120
    SEQUENTIAL_TRIALS = 40

    @pytest.fixture(scope="class")
    def noise(self):
        return uniform_noise_matrix(3, 0.4)

    @pytest.fixture(scope="class")
    def initial(self):
        # 25% undecided so every category (including "observed nothing")
        # has mass, exercising the undecided handling of every rule.
        state = biased_population(self.NUM_NODES, 3, 0.2, random_state=1)
        opinions = state.opinions.copy()
        opinions[: self.NUM_NODES // 4] = 0
        return PopulationState(opinions, 3)

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_counts_vs_batched(self, rule, sample_size, noise, initial):
        counts = pooled_category_counts_counts_engine(
            rule, sample_size, self.NUM_NODES, noise, initial,
            self.POOL_TRIALS, seed=10,
        )
        batched = pooled_category_counts_batched_engine(
            rule, sample_size, self.NUM_NODES, noise, initial,
            self.POOL_TRIALS, seed=20,
        )
        assert counts.sum() == batched.sum()
        statistic, df = two_sample_chi_square(counts, batched)
        assert statistic < CHI2_CRITICAL_001[df], (
            f"{rule}: counts vs batched one-round chi-square {statistic:.1f} "
            f"exceeds the alpha=0.001 critical value for df={df}"
        )

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_counts_vs_sequential(self, rule, sample_size, noise, initial):
        counts = pooled_category_counts_counts_engine(
            rule, sample_size, self.NUM_NODES, noise, initial,
            self.POOL_TRIALS, seed=30,
        )
        sequential = pooled_category_counts_sequential_engine(
            rule, sample_size, self.NUM_NODES, noise, initial,
            self.SEQUENTIAL_TRIALS, seed=4000,
        )
        statistic, df = two_sample_chi_square(counts, sequential)
        assert statistic < CHI2_CRITICAL_001[df], (
            f"{rule}: counts vs sequential one-round chi-square "
            f"{statistic:.1f} exceeds the alpha=0.001 critical value for "
            f"df={df}"
        )


class TestDynamicsFinalBiasAgreement:
    """KS cross-checks of multi-round final-bias summaries.

    20 rounds (no early stopping) keeps every trial away from consensus so
    the bias distribution stays non-degenerate; counts vs batched engines.
    """

    NUM_NODES = 300
    TRIALS = 100
    ROUNDS = 20

    @pytest.fixture(scope="class")
    def noise(self):
        return uniform_noise_matrix(3, 0.4)

    @pytest.fixture(scope="class")
    def initial(self):
        return biased_population(self.NUM_NODES, 3, 0.15, random_state=2)

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_counts_vs_batched_final_bias(self, rule, sample_size, noise,
                                          initial):
        counts = build_dynamics(
            "counts", rule, self.NUM_NODES, noise, 50, sample_size=sample_size
        ).run(initial, self.ROUNDS, self.TRIALS, target_opinion=1,
              stop_at_consensus=False, record_history=False)
        batched = build_dynamics(
            "batched", rule, self.NUM_NODES, noise, 60, sample_size=sample_size
        ).run(initial, self.ROUNDS, self.TRIALS, target_opinion=1,
              stop_at_consensus=False, record_history=False)
        statistic = ks_statistic(counts.final_biases, batched.final_biases)
        critical = ks_critical(self.TRIALS, self.TRIALS)
        assert statistic < critical, (
            f"{rule}: final-bias KS {statistic:.3f} exceeds the alpha=0.001 "
            f"critical value {critical:.3f}"
        )


class TestProtocolAgreement:
    """The two-stage protocol across all three engines."""

    NUM_NODES = 600
    EPSILON = 0.3
    TRIALS = 100
    SEQUENTIAL_TRIALS = 20

    @pytest.fixture(scope="class")
    def noise(self):
        return uniform_noise_matrix(3, self.EPSILON)

    @pytest.fixture(scope="class")
    def initial(self):
        return rumor_instance(self.NUM_NODES, 3, 1)

    @pytest.fixture(scope="class")
    def counts_result(self, noise, initial):
        return CountsProtocol(
            self.NUM_NODES, noise, epsilon=self.EPSILON, random_state=70
        ).run(initial, self.TRIALS, target_opinion=1)

    @pytest.fixture(scope="class")
    def batched_result(self, noise, initial):
        return EnsembleProtocol(
            self.NUM_NODES, noise, epsilon=self.EPSILON, random_state=80
        ).run(initial, self.TRIALS, target_opinion=1)

    def test_stage1_bias_distribution(self, counts_result, batched_result):
        statistic = ks_statistic(
            counts_result.biases_after_stage1,
            batched_result.biases_after_stage1,
        )
        critical = ks_critical(self.TRIALS, self.TRIALS)
        assert statistic < critical, (
            f"Stage-1 bias KS {statistic:.3f} exceeds the alpha=0.001 "
            f"critical value {critical:.3f}"
        )

    def test_stage1_phase0_adoption_counts(self, noise, initial):
        """Chi-square on the pooled phase-0 adoption categories: the
        counts engine's Poissonized throw vs the batched engine's exact
        Claim-1 throw (pooled over trials, so the counts engine's larger
        per-trial total variance only makes the test conservative)."""
        counts_records = CountsProtocol(
            self.NUM_NODES, noise, epsilon=self.EPSILON, random_state=90
        ).run(initial, self.TRIALS, target_opinion=1).stage1_records[0]
        batched_records = EnsembleProtocol(
            self.NUM_NODES, noise, epsilon=self.EPSILON, random_state=95
        ).run(initial, self.TRIALS, target_opinion=1).stage1_records[0]
        pooled = []
        for record in (counts_records, batched_records):
            per_opinion = np.rint(
                record.opinion_distributions * self.NUM_NODES
            ).astype(np.int64).sum(axis=0)
            undecided = self.TRIALS * self.NUM_NODES - per_opinion.sum()
            pooled.append(np.concatenate([[undecided], per_opinion]))
        statistic, df = two_sample_chi_square(*pooled)
        assert statistic < CHI2_CRITICAL_001[df], (
            f"phase-0 adoption chi-square {statistic:.1f} exceeds the "
            f"alpha=0.001 critical value for df={df}"
        )

    def test_success_and_final_bias_across_all_engines(
        self, noise, initial, counts_result, batched_result
    ):
        sequential_successes = []
        sequential_final_biases = []
        for seed in range(self.SEQUENTIAL_TRIALS):
            result = TwoStageProtocol(
                self.NUM_NODES, noise, epsilon=self.EPSILON,
                random_state=7000 + seed,
            ).run(initial, target_opinion=1)
            sequential_successes.append(result.success)
            sequential_final_biases.append(result.final_bias)
        rates = {
            "counts": counts_result.success_rate,
            "batched": batched_result.success_rate,
            "sequential": float(np.mean(sequential_successes)),
        }
        # The protocol succeeds w.h.p. at this scale on every engine; a
        # four-sigma binomial tolerance on the smallest sample bounds the
        # admissible spread.
        tolerance = 4.0 * np.sqrt(0.25 / self.SEQUENTIAL_TRIALS)
        assert max(rates.values()) - min(rates.values()) <= tolerance, rates
        statistic = ks_statistic(
            counts_result.final_biases, batched_result.final_biases
        )
        critical = ks_critical(self.TRIALS, self.TRIALS)
        assert statistic < critical
        assert float(np.mean(sequential_final_biases)) == pytest.approx(
            float(counts_result.final_biases.mean()), abs=0.1
        )


# --------------------------------------------------------------------------
# Exact-reference verification: every sampling tier vs the analytic tier.
# --------------------------------------------------------------------------

#: Documented approximation allowance for protocol analytic-vs-sampled TVD
#: checks.  The analytic protocol evolves phases under the *expected*
#: recolored histogram, dropping the cross-node correlation induced by
#: sharing one sampled histogram per round; at epsilon = 0.5 the measured
#: phase TVD is ~0.03 against a ~0.13 sampling threshold, so 0.05 of
#: dedicated slack is generous without masking real divergence.
PROTOCOL_TVD_MARGIN = 0.05

#: Documented approximation allowance for protocol success probabilities.
#: The expected-histogram approximation biases the analytic success
#: probability by ~0.02-0.035 at the non-degenerate operating point below
#: (epsilon = 0.3, round_scale = 0.2); the Wilson interval is widened by
#: this margin on each side.
PROTOCOL_SUCCESS_MARGIN = 0.05


def exact_reference_setup():
    """The shared small-scale configuration where the exact kernel is
    tractable: n = 12, k = 2 gives C(14, 2) = 91 count states."""
    num_nodes, num_opinions = 12, 2
    noise = uniform_noise_matrix(num_opinions, 0.4)
    initial_counts = np.array([5, 4], dtype=np.int64)  # 3 undecided
    return num_nodes, num_opinions, noise, initial_counts


class TestExactDynamicsOneRoundTVD:
    """One synchronous round from a fixed count state: each sampling
    tier's empirical distribution over count states must be within the
    distribution-free sampling TVD threshold of the exact kernel row.

    The dynamics tiers are exact in distribution, so the only admissible
    gap is sampling noise — ``sampling_tvd_threshold`` bounds exactly
    that (alpha = 0.001 per check).
    """

    COUNTS_TRIALS = 4000
    BATCHED_TRIALS = 2000
    SEQUENTIAL_TRIALS = 400

    @pytest.fixture(scope="class")
    def setup(self):
        return exact_reference_setup()

    def population_state(self, initial_counts, num_nodes, num_opinions):
        undecided = num_nodes - int(initial_counts.sum())
        opinions = np.concatenate(
            [np.full(undecided, 0)]
            + [
                np.full(int(count), opinion + 1)
                for opinion, count in enumerate(initial_counts)
            ]
        ).astype(np.int64)
        return PopulationState(opinions, num_opinions)

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_counts_tier_matches_exact_kernel(self, rule, sample_size, setup):
        num_nodes, num_opinions, noise, initial = setup
        chain = ExactDynamicsChain(rule, num_nodes, noise, sample_size=sample_size)
        exact = chain.one_round_distribution(initial)
        dynamics = build_dynamics(
            "counts", rule, num_nodes, noise, 7, sample_size=sample_size
        )
        result = dynamics.run(
            CountsState(initial, num_nodes), 1, self.COUNTS_TRIALS,
            target_opinion=1, stop_at_consensus=False, record_history=False,
        )
        empirical = empirical_state_distribution(
            result.final_states.counts, num_nodes, num_opinions
        )
        threshold = sampling_tvd_threshold(
            state_space_size(num_nodes, num_opinions), self.COUNTS_TRIALS
        )
        tvd = total_variation_distance(exact, empirical)
        assert tvd < threshold, (
            f"{rule}: counts-tier one-round TVD {tvd:.4f} exceeds the "
            f"sampling threshold {threshold:.4f}"
        )

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_batched_tier_matches_exact_kernel(self, rule, sample_size, setup):
        num_nodes, num_opinions, noise, initial = setup
        chain = ExactDynamicsChain(rule, num_nodes, noise, sample_size=sample_size)
        exact = chain.one_round_distribution(initial)
        dynamics = build_dynamics(
            "batched", rule, num_nodes, noise, 7, sample_size=sample_size
        )
        result = dynamics.run(
            self.population_state(initial, num_nodes, num_opinions),
            1, self.BATCHED_TRIALS,
            target_opinion=1, stop_at_consensus=False, record_history=False,
        )
        empirical = empirical_state_distribution(
            result.final_states.opinion_counts(), num_nodes, num_opinions
        )
        threshold = sampling_tvd_threshold(
            state_space_size(num_nodes, num_opinions), self.BATCHED_TRIALS
        )
        tvd = total_variation_distance(exact, empirical)
        assert tvd < threshold, (
            f"{rule}: batched-tier one-round TVD {tvd:.4f} exceeds the "
            f"sampling threshold {threshold:.4f}"
        )

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_sequential_tier_matches_exact_kernel(self, rule, sample_size, setup):
        num_nodes, num_opinions, noise, initial = setup
        chain = ExactDynamicsChain(rule, num_nodes, noise, sample_size=sample_size)
        exact = chain.one_round_distribution(initial)
        state = self.population_state(initial, num_nodes, num_opinions)
        finals = np.zeros((self.SEQUENTIAL_TRIALS, num_opinions), dtype=np.int64)
        for trial in range(self.SEQUENTIAL_TRIALS):
            dynamics = build_dynamics(
                "sequential", rule, num_nodes, noise, 1000 + trial,
                sample_size=sample_size,
            )
            result = dynamics.run(
                state, 1, target_opinion=1, stop_at_consensus=False,
                record_history=False,
            )
            finals[trial] = result.final_state.opinion_counts()
        empirical = empirical_state_distribution(finals, num_nodes, num_opinions)
        threshold = sampling_tvd_threshold(
            state_space_size(num_nodes, num_opinions), self.SEQUENTIAL_TRIALS
        )
        tvd = total_variation_distance(exact, empirical)
        assert tvd < threshold, (
            f"{rule}: sequential-tier one-round TVD {tvd:.4f} exceeds the "
            f"sampling threshold {threshold:.4f}"
        )


class TestExactDynamicsSuccessProbability:
    """Multi-round absorption: the exact success probability (computed by
    the analytic engine through the public ``simulate`` facade) must lie
    in every sampling tier's Wilson 99.9% interval."""

    ENGINE_TRIALS = [("counts", 1500), ("batched", 600), ("sequential", 120)]

    @staticmethod
    def scenario(rule, sample_size, engine, num_trials):
        return Scenario(
            workload="dynamics", num_nodes=12, num_opinions=2, epsilon=0.5,
            rule=rule, sample_size=sample_size, bias=0.3, max_rounds=60,
            engine=engine, num_trials=num_trials, seed=99,
        )

    @pytest.mark.parametrize("rule,sample_size", ALL_RULES)
    def test_exact_success_inside_every_wilson_interval(self, rule, sample_size):
        exact = simulate(self.scenario(rule, sample_size, "analytic", 1))
        assert exact.is_analytic
        assert exact.analytic_method == "exact"
        for engine, num_trials in self.ENGINE_TRIALS:
            sampled = simulate(self.scenario(rule, sample_size, engine, num_trials))
            low, high = wilson_interval(sampled.success_count, sampled.num_trials)
            assert low <= exact.success_probability <= high, (
                f"{rule}/{engine}: exact success probability "
                f"{exact.success_probability:.4f} outside the Wilson 99.9% "
                f"interval [{low:.4f}, {high:.4f}] "
                f"({sampled.success_count}/{sampled.num_trials} successes)"
            )


class TestProtocolAnalyticAgreement:
    """The two-stage protocol's analytic tier vs the sampling tiers.

    The analytic protocol is *approximate* (expected recolored histogram,
    Stage-2 ``maj()`` nonlinearity), so each check adds the documented
    margin on top of the pure-sampling bound — see
    :data:`PROTOCOL_TVD_MARGIN` / :data:`PROTOCOL_SUCCESS_MARGIN`.
    """

    NUM_NODES = 14
    NUM_OPINIONS = 2

    def test_stage1_phase_distributions_match_counts_tier(self):
        """Phase-by-phase Stage-1 TVD at the default schedule
        (epsilon = 0.5), where the expectation approximation is tight."""
        epsilon, trials = 0.5, 3000
        noise = uniform_noise_matrix(self.NUM_OPINIONS, epsilon)
        initial = np.array([1, 0], dtype=np.int64)
        exact = AnalyticProtocol(self.NUM_NODES, noise, epsilon=epsilon)
        schedule = exact.build_schedule(1)
        sampled = CountsProtocol(
            self.NUM_NODES, noise, epsilon=epsilon, random_state=123
        ).run(CountsState(initial, self.NUM_NODES), trials, target_opinion=1)
        threshold = sampling_tvd_threshold(
            state_space_size(self.NUM_NODES, self.NUM_OPINIONS), trials
        ) + PROTOCOL_TVD_MARGIN
        distribution = exact.initial_distribution(initial)
        for phase, length in enumerate(schedule.stage1.phase_lengths):
            distribution = exact.evolve_stage1_phase(distribution, length)
            counts = np.rint(
                sampled.stage1_records[phase].opinion_distributions
                * self.NUM_NODES
            ).astype(np.int64)
            empirical = empirical_state_distribution(
                counts, self.NUM_NODES, self.NUM_OPINIONS
            )
            tvd = total_variation_distance(distribution, empirical)
            assert tvd < threshold, (
                f"stage-1 phase {phase}: protocol TVD {tvd:.4f} exceeds "
                f"{threshold:.4f} (sampling + documented margin)"
            )

    def test_final_state_distribution_matches_counts_tier(self):
        """End-to-end (Stage 1 + Stage 2) final-state TVD at a
        non-degenerate operating point (success probability ~0.68)."""
        epsilon, round_scale, trials = 0.3, 0.2, 4000
        noise = uniform_noise_matrix(self.NUM_OPINIONS, epsilon)
        initial = np.array([1, 0], dtype=np.int64)
        exact = AnalyticProtocol(
            self.NUM_NODES, noise, epsilon=epsilon, round_scale=round_scale
        )
        schedule = exact.build_schedule(1)
        distribution = exact.initial_distribution(initial)
        for length in schedule.stage1.phase_lengths:
            distribution = exact.evolve_stage1_phase(distribution, length)
        for length, sample_size in zip(
            schedule.stage2.phase_lengths, schedule.stage2.sample_sizes
        ):
            distribution = exact.evolve_stage2_phase(
                distribution, length, sample_size
            )
        sampled = CountsProtocol(
            self.NUM_NODES, noise, epsilon=epsilon, round_scale=round_scale,
            random_state=123,
        ).run(CountsState(initial, self.NUM_NODES), trials, target_opinion=1)
        empirical = empirical_state_distribution(
            np.asarray(sampled.final_states.counts, dtype=np.int64),
            self.NUM_NODES, self.NUM_OPINIONS,
        )
        threshold = sampling_tvd_threshold(
            state_space_size(self.NUM_NODES, self.NUM_OPINIONS), trials
        ) + PROTOCOL_TVD_MARGIN
        tvd = total_variation_distance(distribution, empirical)
        assert tvd < threshold, (
            f"final-state protocol TVD {tvd:.4f} exceeds {threshold:.4f}"
        )

    @pytest.mark.parametrize("engine,num_trials", [
        ("counts", 2000),
        ("batched", 400),
        ("sequential", 60),
    ])
    def test_rumor_success_inside_widened_wilson_interval(self, engine, num_trials):
        def scenario(eng, trials):
            return Scenario(
                workload="rumor", num_nodes=self.NUM_NODES,
                num_opinions=self.NUM_OPINIONS, epsilon=0.3, round_scale=0.2,
                engine=eng, num_trials=trials, seed=99,
            )

        exact = simulate(scenario("analytic", 1))
        assert exact.is_analytic
        assert exact.analytic_method == "exact"
        sampled = simulate(scenario(engine, num_trials))
        low, high = wilson_interval(sampled.success_count, sampled.num_trials)
        low, high = low - PROTOCOL_SUCCESS_MARGIN, high + PROTOCOL_SUCCESS_MARGIN
        assert low <= exact.success_probability <= high, (
            f"rumor/{engine}: analytic success probability "
            f"{exact.success_probability:.4f} outside the widened Wilson "
            f"interval [{low:.4f}, {high:.4f}]"
        )

    def test_plurality_success_matches_counts_tier(self):
        def scenario(eng, trials):
            return Scenario(
                workload="plurality", num_nodes=self.NUM_NODES,
                num_opinions=self.NUM_OPINIONS, epsilon=0.3,
                shares=(0.55, 0.45), engine=eng, num_trials=trials, seed=42,
            )

        exact = simulate(scenario("analytic", 1))
        assert exact.is_analytic
        sampled = simulate(scenario("counts", 2000))
        low, high = wilson_interval(sampled.success_count, sampled.num_trials)
        low, high = low - PROTOCOL_SUCCESS_MARGIN, high + PROTOCOL_SUCCESS_MARGIN
        assert low <= exact.success_probability <= high
