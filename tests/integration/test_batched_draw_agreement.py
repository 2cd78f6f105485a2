"""Statistical agreement of the batched-draw sweep mode with serial runs.

``simulate_sweep(grid, draw_mode="batched")`` reorders the raw RNG draws
of the fused counts-protocol batch (every row on the first point's
stream) while leaving every per-row *law* untouched, so its results must
be samples of exactly the distribution the serial loop samples.  This is
the TVD/Wilson-style gate the optimization contract requires for any
draw-order-changing change (see ``docs/performance.md``): the default
per-point mode stays bitwise-pinned by
``test_sweep_bitwise_equivalence``-style suites, and this module pins
the batched mode distributionally.

Methodology mirrors ``test_engine_agreement.py``: fixed seeds (every
assertion is deterministic), two-sample KS on per-trial final biases at
the alpha = 0.001 closed-form critical value, two-sample chi-square on
pooled final opinion counts, and Wilson 99.9% interval overlap on
success rates.  Ties and pooling only make the tests conservative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import Scenario, ScenarioGrid, simulate_sweep

pytestmark = pytest.mark.agreement

#: Upper alpha = 0.001 critical values of the chi-square distribution.
CHI2_CRITICAL_001 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}

#: c(alpha) of the two-sample KS critical value at alpha = 0.001.
KS_COEFFICIENT_001 = 1.9495

TRIALS = 192


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    sample_a = np.sort(np.asarray(sample_a, float))
    sample_b = np.sort(np.asarray(sample_b, float))
    grid = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(sample_a, grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(sample_b, grid, side="right") / sample_b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(size_a: int, size_b: int) -> float:
    return KS_COEFFICIENT_001 * np.sqrt((size_a + size_b) / (size_a * size_b))


def two_sample_chi_square(observed_a: np.ndarray, observed_b: np.ndarray):
    observed = np.stack(
        [np.asarray(observed_a, float), np.asarray(observed_b, float)]
    )
    observed = observed[:, observed.sum(axis=0) > 0]
    row_totals = observed.sum(axis=1, keepdims=True)
    column_totals = observed.sum(axis=0, keepdims=True)
    expected = row_totals * column_totals / observed.sum()
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, observed.shape[1] - 1


def wilson_interval(successes: int, total: int, z: float = 3.2905):
    """The Wilson score interval at alpha = 0.001 (z = 3.2905)."""
    if total == 0:
        return 0.0, 1.0
    rate = successes / total
    denominator = 1.0 + z**2 / total
    center = (rate + z**2 / (2 * total)) / denominator
    margin = (
        z
        * np.sqrt(rate * (1.0 - rate) / total + z**2 / (4 * total**2))
        / denominator
    )
    return center - margin, center + margin


@pytest.fixture(scope="module")
def sweep_pair():
    """The same 4-point protocol grid in both draw modes.

    Small enough n that success is not saturated at 1.0 for every epsilon,
    so the success-rate check has discriminating power, and separate seeds
    feed the two modes (same-seed results would be spuriously correlated
    rather than independent samples).
    """
    def grid(seed):
        return ScenarioGrid(
            Scenario(
                workload="rumor",
                num_nodes=600,
                num_opinions=2,
                epsilon=0.25,
                engine="counts",
                num_trials=TRIALS,
                seed=seed,
            ),
            {"epsilon": (0.2, 0.28, 0.36, 0.44)},
        )

    per_trial = simulate_sweep(grid(2024), draw_mode="per-point")
    batched = simulate_sweep(grid(4202), draw_mode="batched")
    return per_trial, batched


def test_final_bias_distributions_agree(sweep_pair):
    per_trial, batched = sweep_pair
    critical = ks_critical(TRIALS, TRIALS)
    for reference, candidate in zip(per_trial.results, batched.results):
        statistic = ks_statistic(
            reference.final_biases, candidate.final_biases
        )
        assert statistic < critical, (
            f"batched-draw final-bias KS statistic {statistic:.3f} exceeds "
            f"the alpha=0.001 critical value {critical:.3f} at "
            f"epsilon={reference.provenance['scenario']['epsilon']}"
        )


def _trial_outcome_categories(result) -> np.ndarray:
    """Per-point trial counts by outcome: [target consensus, other].

    The valid independent unit at absorption is the *trial*, not the node
    (a consensus trial's n final node-counts are perfectly correlated), so
    the chi-square pools trials, never node counts.
    """
    successes = int(result.successes.sum())
    return np.asarray([successes, result.successes.size - successes])


def test_trial_outcome_categories_agree(sweep_pair):
    per_trial, batched = sweep_pair
    for reference, candidate in zip(per_trial.results, batched.results):
        observed_a = _trial_outcome_categories(reference)
        observed_b = _trial_outcome_categories(candidate)
        if (observed_a + observed_b)[1] == 0:
            continue  # both saturated: nothing to compare
        statistic, df = two_sample_chi_square(observed_a, observed_b)
        assert statistic < CHI2_CRITICAL_001[df], (
            f"batched-draw trial-outcome chi-square {statistic:.1f} exceeds "
            f"the alpha=0.001 critical value for df={df}"
        )


def test_success_rates_agree_within_wilson(sweep_pair):
    per_trial, batched = sweep_pair
    for reference, candidate in zip(per_trial.results, batched.results):
        low, high = wilson_interval(
            int(reference.successes.sum()), TRIALS
        )
        batched_rate = candidate.successes.mean()
        assert low <= batched_rate <= high, (
            f"batched-draw success rate {batched_rate:.3f} outside the "
            f"per-trial Wilson 99.9% interval [{low:.3f}, {high:.3f}]"
        )


def test_batched_mode_is_deterministic_given_seeds():
    grid = ScenarioGrid(
        Scenario(
            workload="rumor",
            num_nodes=500,
            num_opinions=2,
            epsilon=0.3,
            engine="counts",
            num_trials=16,
            seed=7,
        ),
        {"epsilon": (0.25, 0.4)},
    )
    first = simulate_sweep(grid, draw_mode="batched")
    second = simulate_sweep(grid, draw_mode="batched")
    for a, b in zip(first.results, second.results):
        assert np.array_equal(a.final_opinion_counts, b.final_opinion_counts)
        assert np.array_equal(a.final_biases, b.final_biases)


def test_batched_mode_is_stamped_in_provenance():
    grid = ScenarioGrid(
        Scenario(
            workload="rumor",
            num_nodes=500,
            num_opinions=2,
            epsilon=0.3,
            engine="counts",
            num_trials=8,
            seed=3,
        ),
        {"epsilon": (0.25, 0.4)},
    )
    batched = simulate_sweep(grid, draw_mode="batched")
    per_point = simulate_sweep(grid)
    for result in batched.results:
        assert result.provenance["rng_draw_order"] == "batched"
    for result in per_point.results:
        assert result.provenance["rng_draw_order"] == "per-point"


def test_invalid_draw_mode_is_rejected():
    grid = ScenarioGrid(
        Scenario(
            workload="rumor",
            num_nodes=500,
            num_opinions=2,
            epsilon=0.3,
            engine="counts",
            num_trials=4,
            seed=3,
        ),
        {"epsilon": (0.25,)},
    )
    with pytest.raises(ValueError, match="draw_mode"):
        simulate_sweep(grid, draw_mode="columnwise")
