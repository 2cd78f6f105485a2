"""Closed-form quantities from the paper's analysis.

The functions here are direct transcriptions of the paper's formulas:

* :func:`g_function` — the function ``g(delta, l)`` of Proposition 1 /
  Lemma 15, which controls the per-phase bias amplification;
* :func:`central_binomial_bounds` — Lemma 13's two-sided bound on the central
  binomial coefficient ``C(2r, r)``;
* :func:`binomial_beta_survival` — the binomial survival function written as
  the Lemma 8 incomplete-beta integral (used to cross-check Lemma 8);
* :func:`stage1_growth_envelope` — the Claim 2 / Claim 3 envelope for the
  growth of the opinionated set during Stage 1;
* :func:`stage1_bias_envelope` — the Lemma 7 per-phase bias lower bound
  ``(eps/2)^j``;
* :func:`theoretical_bias_after_stage1` — the Lemma 4 end-of-Stage-1 bias
  scale ``sqrt(log n / n)``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.utils.validation import require_fraction, require_positive_int

__all__ = [
    "g_function",
    "central_binomial_bounds",
    "paper_central_binomial_bounds",
    "binomial_beta_survival",
    "stage1_growth_envelope",
    "stage1_bias_envelope",
    "theoretical_bias_after_stage1",
]


def g_function(delta: float, sample_size: float) -> float:
    """The paper's ``g(delta, l)`` (Proposition 1 / Lemma 15).

    ``g(delta, l) = delta * (1 - delta^2)^((l-1)/2)`` when ``delta < 1/sqrt(l)``
    and ``sqrt(1/l) * (1 - 1/l)^((l-1)/2)`` otherwise.  Lemma 15 shows ``g`` is
    non-decreasing in ``delta`` and non-increasing in ``l``; the property
    tests verify both monotonicities numerically.
    """
    delta = float(delta)
    sample_size = float(sample_size)
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if sample_size < 1.0:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    threshold = 1.0 / math.sqrt(sample_size)
    exponent = (sample_size - 1.0) / 2.0
    if delta < threshold:
        return delta * (1.0 - delta * delta) ** exponent
    return threshold * (1.0 - 1.0 / sample_size) ** exponent


def central_binomial_bounds(r: int) -> Tuple[float, float, float]:
    """Two-sided Robbins-style bound on the central binomial coefficient.

    Lemma 13 of the paper states
    ``4^r/sqrt(pi r) * e^(1/(9r)) <= C(2r, r) <= 4^r/sqrt(pi r) * e^(1/(8r))``.
    The signs of the exponents are a typo: ``C(2r, r) = 4^r/sqrt(pi r) *
    e^(-theta_r)`` with ``theta_r`` between ``1/(9r)`` and ``1/(8r)`` (this
    follows from Robbins' form of Stirling's approximation), so the correct
    two-sided bound — the one this function returns and the tests verify — is

        ``4^r/sqrt(pi r) * e^(-1/(8r)) <= C(2r, r) <= 4^r/sqrt(pi r) * e^(-1/(9r))``.

    The discrepancy only affects constant factors and none of the paper's
    conclusions; see :func:`paper_central_binomial_bounds` for the literal
    values as printed in the paper.

    Returns ``(lower_bound, exact_value, upper_bound)``.
    """
    from scipy.special import comb

    r = require_positive_int(r, "r")
    base = 4.0**r / math.sqrt(math.pi * r)
    lower = base * math.exp(-1.0 / (8.0 * r))
    upper = base * math.exp(-1.0 / (9.0 * r))
    exact = float(comb(2 * r, r, exact=True))
    return lower, exact, upper


def paper_central_binomial_bounds(r: int) -> Tuple[float, float, float]:
    """Lemma 13 exactly as printed in the paper (known to be slightly off).

    Returns ``(paper_lower, exact_value, paper_upper)`` with
    ``paper_lower = 4^r/sqrt(pi r) * e^(1/(9r))`` and
    ``paper_upper = 4^r/sqrt(pi r) * e^(1/(8r))``; the *upper* bound is valid,
    the printed lower bound slightly exceeds the exact coefficient for every
    ``r`` (see :func:`central_binomial_bounds` for the corrected version).
    """
    from scipy.special import comb

    r = require_positive_int(r, "r")
    base = 4.0**r / math.sqrt(math.pi * r)
    lower = base * math.exp(1.0 / (9.0 * r))
    upper = base * math.exp(1.0 / (8.0 * r))
    exact = float(comb(2 * r, r, exact=True))
    return lower, exact, upper


def binomial_beta_survival(p: float, j: int, ell: int) -> Tuple[float, float]:
    """Lemma 8: the binomial survival function equals a beta integral.

    Returns ``(binomial_sum, beta_integral)`` where

    * ``binomial_sum  = sum_{j < i <= l} C(l, i) p^i (1-p)^(l-i)``,
    * ``beta_integral = C(l, j+1) (j+1) * int_0^p z^j (1-z)^(l-j-1) dz``,

    which Lemma 8 proves equal; the tests assert the two agree to machine
    precision.  The integral is evaluated through the regularized incomplete
    beta function ``I_p(j+1, l-j)``.
    """
    from scipy.special import beta as beta_fn, betainc, comb

    p = require_fraction(p, "p")
    ell = require_positive_int(ell, "ell")
    if not (0 <= j <= ell):
        raise ValueError(f"j must lie in [0, {ell}], got {j}")
    indices = np.arange(j + 1, ell + 1)
    if indices.size == 0:
        binomial_sum = 0.0
    else:
        terms = comb(ell, indices) * (p**indices) * ((1.0 - p) ** (ell - indices))
        binomial_sum = float(np.sum(terms))
    if j == ell:
        beta_integral = 0.0
    else:
        # C(l, j+1) (j+1) * B(j+1, l-j) * I_p(j+1, l-j)  ==  I_p(j+1, l-j)
        # because C(l, j+1)*(j+1)*B(j+1, l-j) = 1; we keep the explicit form
        # to mirror the lemma statement.
        normalizer = float(comb(ell, j + 1) * (j + 1) * beta_fn(j + 1, ell - j))
        beta_integral = normalizer * float(betainc(j + 1, ell - j, p))
    return binomial_sum, beta_integral


def stage1_growth_envelope(
    initial_opinionated_fraction: float,
    epsilon: float,
    beta: float,
    phase_index: int,
) -> Tuple[float, float]:
    """Claim 3's envelope for the opinionated fraction after growth phase ``j``.

    Returns ``(lower, upper)`` with
    ``lower = (beta/eps^2 + 1)^j * a(tau_0) / 8`` and
    ``upper = (beta/eps^2 + 1)^j * a(tau_0)`` (both capped at 1).
    """
    if initial_opinionated_fraction < 0 or initial_opinionated_fraction > 1:
        raise ValueError("initial_opinionated_fraction must lie in [0, 1]")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if phase_index < 0:
        raise ValueError("phase_index must be non-negative")
    factor = (beta / (epsilon * epsilon) + 1.0) ** phase_index
    upper = min(1.0, factor * initial_opinionated_fraction)
    lower = min(1.0, factor * initial_opinionated_fraction / 8.0)
    return lower, upper


def stage1_bias_envelope(epsilon: float, phase_index: int) -> float:
    """Lemma 7's per-phase bias lower bound ``(eps/2)^j`` for Stage-1 phase ``j``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if phase_index < 1:
        raise ValueError("phase_index must be >= 1")
    return (epsilon / 2.0) ** phase_index


def theoretical_bias_after_stage1(num_nodes: int, constant: float = 1.0) -> float:
    """The Lemma 4 end-of-Stage-1 bias scale ``constant * sqrt(log n / n)``."""
    num_nodes = require_positive_int(num_nodes, "num_nodes")
    return constant * math.sqrt(math.log(max(num_nodes, 2)) / num_nodes)
