"""The Proposition-1 bias amplification quantities.

Stage 2 works because a node that takes the majority of a size-``l`` sample
drawn from a delta-biased (noisy) opinion distribution is more likely to pick
the plurality opinion ``m`` than any rival ``i``, by a margin that
Proposition 1 lower-bounds by::

    Pr[maj_l = m] - Pr[maj_l = i]  >=  sqrt(2 l / pi) * g(delta, l) / 4^(k-2).

This module computes the left-hand side exactly (for small ``l`` and ``k``,
by enumerating multinomial outcomes; for ``k = 2`` by binomial sums) and by
Monte-Carlo (for everything else), plus the right-hand side bound, so that
experiment E5 can tabulate measured-vs-guaranteed amplification across
``delta``, ``l`` and ``k``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.theory import g_function
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import require_positive_int, require_probability_vector

__all__ = [
    "amplification_lower_bound",
    "binary_majority_gap_exact",
    "majority_probabilities_exact",
    "majority_gap_monte_carlo",
    "expected_amplification_factor",
]

#: Above this multinomial outcome count the exact enumeration is refused
#: (callers should fall back to Monte Carlo).
_MAX_EXACT_OUTCOMES = 2_000_000


def amplification_lower_bound(delta: float, sample_size: int, num_opinions: int) -> float:
    """Proposition 1's lower bound ``sqrt(2l/pi) * g(delta, l) / 4^(k-2)``."""
    sample_size = require_positive_int(sample_size, "sample_size")
    num_opinions = require_positive_int(num_opinions, "num_opinions")
    if num_opinions < 2:
        raise ValueError("the bound is defined for k >= 2 opinions")
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return (
        math.sqrt(2.0 * sample_size / math.pi)
        * g_function(delta, sample_size)
        / (4.0 ** (num_opinions - 2))
    )


def binary_majority_gap_exact(probability: float, sample_size: int) -> float:
    """Exact ``Pr[maj_l = 1] - Pr[maj_l = 2]`` for two opinions.

    ``probability`` is the chance that a single sampled message carries
    opinion 1.  Ties (possible for even ``l``) are broken uniformly and hence
    cancel out of the difference, so the gap equals
    ``Pr[X > l/2] - Pr[X < l/2]`` with ``X ~ Bin(l, probability)``.
    """
    from scipy.special import gammaln

    sample_size = require_positive_int(sample_size, "sample_size")
    if not (0.0 <= probability <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    counts = np.arange(sample_size + 1)
    log_pmf = (
        gammaln(sample_size + 1)
        - gammaln(counts + 1)
        - gammaln(sample_size - counts + 1)
    )
    with np.errstate(divide="ignore"):
        log_pmf = (
            log_pmf
            + counts * np.log(max(probability, 1e-300))
            + (sample_size - counts) * np.log(max(1.0 - probability, 1e-300))
        )
    pmf = np.exp(log_pmf)
    if probability == 0.0:
        pmf = np.zeros(sample_size + 1)
        pmf[0] = 1.0
    elif probability == 1.0:
        pmf = np.zeros(sample_size + 1)
        pmf[-1] = 1.0
    above = float(pmf[counts * 2 > sample_size].sum())
    below = float(pmf[counts * 2 < sample_size].sum())
    return above - below


def _multinomial_log_pmf(counts: np.ndarray, probabilities: np.ndarray) -> float:
    from scipy.special import gammaln

    total = counts.sum()
    log_coeff = gammaln(total + 1) - gammaln(counts + 1).sum()
    with np.errstate(divide="ignore"):
        log_terms = np.where(
            counts > 0, counts * np.log(np.maximum(probabilities, 1e-300)), 0.0
        )
    return float(log_coeff + log_terms.sum())


def majority_probabilities_exact(
    probabilities: Sequence[float], sample_size: int
) -> np.ndarray:
    """Exact ``Pr[maj_l = i]`` for every opinion ``i`` by full enumeration.

    ``probabilities`` is the distribution a single sampled message is drawn
    from (the paper's ``c . P``).  The enumeration covers every composition
    of ``sample_size`` into ``k`` parts and splits ties uniformly over the
    mode set; it is intended for the small ``l``/``k`` regimes of the
    amplification and parity experiments and refuses instances whose outcome
    count exceeds an internal limit.
    """
    probabilities = require_probability_vector(probabilities, "probabilities")
    sample_size = require_positive_int(sample_size, "sample_size")
    num_opinions = probabilities.size
    num_outcomes = math.comb(sample_size + num_opinions - 1, num_opinions - 1)
    if num_outcomes > _MAX_EXACT_OUTCOMES:
        raise ValueError(
            f"exact enumeration would require {num_outcomes} outcomes; use "
            "majority_gap_monte_carlo instead"
        )
    result = np.zeros(num_opinions)
    for cuts in itertools.combinations(
        range(sample_size + num_opinions - 1), num_opinions - 1
    ):
        counts = np.diff(
            np.concatenate(([-1], np.asarray(cuts), [sample_size + num_opinions - 1]))
        ) - 1
        counts = counts.astype(np.int64)
        pmf = math.exp(_multinomial_log_pmf(counts, probabilities))
        top = counts.max()
        winners = np.nonzero(counts == top)[0]
        result[winners] += pmf / winners.size
    return result


def majority_gap_monte_carlo(
    probabilities: Sequence[float],
    sample_size: int,
    num_trials: int,
    random_state: RandomState = None,
) -> np.ndarray:
    """Monte-Carlo estimate of ``Pr[maj_l = i]`` for every opinion ``i``.

    Draws ``num_trials`` multinomial samples of size ``sample_size`` from
    ``probabilities`` and tallies the majority winner of each, breaking ties
    uniformly at random.
    """
    probabilities = require_probability_vector(probabilities, "probabilities")
    sample_size = require_positive_int(sample_size, "sample_size")
    num_trials = require_positive_int(num_trials, "num_trials")
    rng = as_generator(random_state)
    samples = rng.multinomial(sample_size, probabilities, size=num_trials)
    top = samples.max(axis=1, keepdims=True)
    is_mode = samples == top
    # Uniform tie-break: weight each modal opinion by 1 / (number of modes).
    weights = is_mode / is_mode.sum(axis=1, keepdims=True)
    return weights.mean(axis=0)


def expected_amplification_factor(
    delta: float,
    sample_size: int,
    num_opinions: int,
    *,
    majority_opinion: int = 1,
    noise_matrix: Optional["NoiseMatrix"] = None,
    method: str = "auto",
    num_trials: int = 200_000,
    random_state: RandomState = None,
) -> Dict[str, float]:
    """Measured vs. guaranteed amplification for a canonical delta-biased start.

    Builds the "uniform rest" delta-biased distribution, optionally passes it
    through ``noise_matrix`` (Eq. (2)), and computes the worst-case gap
    ``Pr[maj = m] - max_{i != m} Pr[maj = i]`` exactly or by Monte Carlo,
    together with Proposition 1's lower bound.

    Returns a dictionary with keys ``measured_gap``, ``lower_bound`` and
    ``amplification`` (= measured gap / delta, the per-phase bias
    multiplication factor when the phase starts delta-biased).
    """
    from repro.analysis.bias import make_biased_distribution

    distribution = make_biased_distribution(
        num_opinions, delta, majority_opinion
    )
    if noise_matrix is not None:
        distribution = noise_matrix.propagate(distribution)
        distribution = distribution / distribution.sum()
    if method not in {"auto", "exact", "monte_carlo"}:
        raise ValueError(
            "method must be 'auto', 'exact' or 'monte_carlo', got "
            f"{method!r}"
        )
    use_exact = method == "exact"
    if method == "auto":
        num_outcomes = math.comb(sample_size + num_opinions - 1, num_opinions - 1)
        use_exact = num_outcomes <= 50_000
    if use_exact:
        win_probabilities = majority_probabilities_exact(distribution, sample_size)
    else:
        win_probabilities = majority_gap_monte_carlo(
            distribution, sample_size, num_trials, random_state
        )
    rivals = np.delete(win_probabilities, majority_opinion - 1)
    measured_gap = float(win_probabilities[majority_opinion - 1] - rivals.max())
    lower_bound = amplification_lower_bound(delta, sample_size, num_opinions)
    return {
        "measured_gap": measured_gap,
        "lower_bound": lower_bound,
        "amplification": measured_gap / delta if delta > 0 else float("inf"),
    }
