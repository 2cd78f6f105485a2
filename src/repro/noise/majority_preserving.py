"""Verification of the (epsilon, delta)-majority-preserving property.

Definition 2 of the paper: a noise matrix ``P`` is ``(epsilon, delta)``-
majority-preserving (m.p.) with respect to opinion ``m`` if, for every
opinion distribution ``c`` that is delta-biased toward ``m``
(``c_m - c_i >= delta`` for all ``i != m``), we have
``(cP)_m - (cP)_i > epsilon * delta`` for all ``i != m``.

Section 4 observes that verifying this property is a family of linear
programs: for each ``i != m``, optimize ``(cP)_m - (cP)_i`` over the polytope
``{ c : sum_j c_j = 1, c_j >= 0, c_m - c_j >= delta for j != m }``.  The
property holds iff the *worst case* (minimum) of this objective over the
polytope exceeds ``epsilon * delta`` for every ``i``.  (The paper's text
states the program with "maximize"; since the property quantifies over
*every* delta-biased distribution, the operative quantity is the minimum,
which is what we compute.  The maximum is also exposed for completeness.)

Section 4 also gives the closed-form sufficient condition of Eq. (17)/(18)
for matrices with constant diagonal ``p`` and off-diagonal entries confined
to ``[q_l, q_u]``: with ``epsilon = (p - q_u)/2``, the matrix is
``(epsilon, delta)``-m.p. whenever ``(p - q_u) * delta / 2 >= q_u - q_l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.noise.matrix import NoiseMatrix
from repro.utils.validation import require_fraction

__all__ = [
    "MajorityPreservationReport",
    "bias_gap_bounds",
    "check_majority_preserving",
    "epsilon_for_delta",
    "minimal_bias_gap",
    "sufficient_condition_epsilon",
    "worst_case_distribution",
]


@dataclass(frozen=True)
class MajorityPreservationReport:
    """The result of an (epsilon, delta)-m.p. verification.

    Attributes
    ----------
    is_majority_preserving:
        ``True`` iff the matrix satisfies Definition 2 for the supplied
        ``epsilon``, ``delta`` and ``majority_opinion``.
    epsilon, delta, majority_opinion:
        Echo of the query parameters.
    minimal_gap:
        The minimum over rival opinions ``i`` of the worst-case
        ``(cP)_m - (cP)_i`` over all delta-biased distributions ``c``.
    required_gap:
        ``epsilon * delta`` — the threshold the minimal gap must exceed.
    per_opinion_gap:
        Worst-case gap for each rival opinion (keys are 1-based labels).
    worst_distribution:
        The delta-biased distribution achieving ``minimal_gap`` (indexed by
        opinion ``1..k``), useful as a hard initial condition in experiments.
    preserves_plurality:
        ``True`` iff even the weaker property "the noisy distribution still
        ranks ``m`` strictly first" (gap > 0) holds; a matrix can preserve
        the plurality while failing the quantitative epsilon condition.
    """

    is_majority_preserving: bool
    epsilon: float
    delta: float
    majority_opinion: int
    minimal_gap: float
    required_gap: float
    per_opinion_gap: Dict[int, float] = field(default_factory=dict)
    worst_distribution: Optional[np.ndarray] = None
    preserves_plurality: bool = False

    def summary(self) -> str:
        """A one-line human-readable verdict."""
        verdict = "IS" if self.is_majority_preserving else "is NOT"
        return (
            f"matrix {verdict} ({self.epsilon:g}, {self.delta:g})-majority-preserving "
            f"w.r.t. opinion {self.majority_opinion} "
            f"(worst gap {self.minimal_gap:.6g}, required > {self.required_gap:.6g})"
        )


def _delta_biased_polytope(
    num_opinions: int, delta: float, majority_opinion: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constraint matrices of the delta-biased simplex for scipy ``linprog``.

    Returns ``(A_ub, b_ub, A_eq, b_eq)`` for the polytope
    ``{c >= 0, sum c = 1, c_m - c_j >= delta for j != m}`` expressed in the
    ``A_ub @ c <= b_ub`` / ``A_eq @ c == b_eq`` form.
    """
    m_index = majority_opinion - 1
    rows: List[np.ndarray] = []
    for j in range(num_opinions):
        if j == m_index:
            continue
        row = np.zeros(num_opinions)
        # c_j - c_m <= -delta
        row[j] = 1.0
        row[m_index] = -1.0
        rows.append(row)
    a_ub = np.vstack(rows) if rows else np.zeros((0, num_opinions))
    b_ub = np.full(a_ub.shape[0], -delta)
    a_eq = np.ones((1, num_opinions))
    b_eq = np.ones(1)
    return a_ub, b_ub, a_eq, b_eq


def _solve_gap_program(
    noise: NoiseMatrix,
    delta: float,
    majority_opinion: int,
    rival_opinion: int,
    *,
    maximize: bool = False,
) -> Tuple[float, np.ndarray]:
    """Optimize ``(cP)_m - (cP)_i`` over delta-biased distributions ``c``.

    Returns the optimal value and an optimizer.  Raises ``ValueError`` if the
    polytope is empty (delta too large for the given ``k``).
    """
    from scipy.optimize import linprog

    matrix = noise.matrix
    num_opinions = noise.num_opinions
    m_index = majority_opinion - 1
    i_index = rival_opinion - 1
    # (cP)_m - (cP)_i = c . (P[:, m] - P[:, i])
    objective = matrix[:, m_index] - matrix[:, i_index]
    sign = -1.0 if maximize else 1.0
    a_ub, b_ub, a_eq, b_eq = _delta_biased_polytope(
        num_opinions, delta, majority_opinion
    )
    result = linprog(
        sign * objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * num_opinions,
        method="highs",
    )
    if not result.success:
        raise ValueError(
            "delta-biased polytope is empty or the LP failed: "
            f"k={num_opinions}, delta={delta} ({result.message})"
        )
    value = float(sign * result.fun)
    return value, np.asarray(result.x)


def minimal_bias_gap(
    noise: NoiseMatrix, delta: float, majority_opinion: int = 1
) -> Tuple[float, Dict[int, float], np.ndarray]:
    """Worst-case post-noise bias gap over all delta-biased distributions.

    Returns ``(minimal_gap, per_opinion_gap, worst_distribution)`` where
    ``minimal_gap = min_{i != m} min_c [(cP)_m - (cP)_i]``.
    """
    delta = require_fraction(delta, "delta", inclusive_low=False)
    noise._check_opinion(majority_opinion)
    per_opinion: Dict[int, float] = {}
    worst_value = np.inf
    worst_c = None
    for rival in range(1, noise.num_opinions + 1):
        if rival == majority_opinion:
            continue
        value, distribution = _solve_gap_program(
            noise, delta, majority_opinion, rival, maximize=False
        )
        per_opinion[rival] = value
        if value < worst_value:
            worst_value = value
            worst_c = distribution
    if worst_c is None:
        # Single-opinion matrix: the property is vacuous.
        worst_value = np.inf
        worst_c = np.ones(1)
    return float(worst_value), per_opinion, worst_c


def bias_gap_bounds(
    noise: NoiseMatrix, delta: float, majority_opinion: int = 1
) -> Tuple[float, float]:
    """The (min, max) of ``(cP)_m - min_i (cP)_i`` over delta-biased ``c``.

    The minimum is the quantity Definition 2 constrains; the maximum is
    reported for diagnostic purposes (how much bias the channel can preserve
    in the best case).
    """
    delta = require_fraction(delta, "delta", inclusive_low=False)
    noise._check_opinion(majority_opinion)
    minima: List[float] = []
    maxima: List[float] = []
    for rival in range(1, noise.num_opinions + 1):
        if rival == majority_opinion:
            continue
        low, _ = _solve_gap_program(noise, delta, majority_opinion, rival,
                                    maximize=False)
        high, _ = _solve_gap_program(noise, delta, majority_opinion, rival,
                                     maximize=True)
        minima.append(low)
        maxima.append(high)
    if not minima:
        return np.inf, np.inf
    return float(min(minima)), float(max(maxima))


def check_majority_preserving(
    noise: NoiseMatrix,
    epsilon: float,
    delta: float,
    majority_opinion: int = 1,
) -> MajorityPreservationReport:
    """Decide whether ``noise`` is (epsilon, delta)-m.p. w.r.t. ``majority_opinion``.

    This is the exact LP-based check from Section 4 of the paper.
    """
    epsilon = require_fraction(epsilon, "epsilon", inclusive_low=False)
    delta = require_fraction(delta, "delta", inclusive_low=False)
    minimal_gap, per_opinion, worst_c = minimal_bias_gap(
        noise, delta, majority_opinion
    )
    required = epsilon * delta
    return MajorityPreservationReport(
        is_majority_preserving=bool(minimal_gap > required),
        epsilon=epsilon,
        delta=delta,
        majority_opinion=majority_opinion,
        minimal_gap=minimal_gap,
        required_gap=required,
        per_opinion_gap=per_opinion,
        worst_distribution=worst_c,
        preserves_plurality=bool(minimal_gap > 0.0),
    )


def epsilon_for_delta(
    noise: NoiseMatrix, delta: float, majority_opinion: int = 1
) -> float:
    """The largest ``epsilon`` for which ``noise`` is (epsilon, delta)-m.p.

    Equal to ``minimal_gap / delta`` (clamped at 0 when the matrix does not
    even preserve the plurality for some delta-biased distribution).  This is
    the natural "effective epsilon" to feed into the protocol's phase-length
    schedule when the noise matrix does not come from a parametric family.
    """
    minimal_gap, _, _ = minimal_bias_gap(noise, delta, majority_opinion)
    return max(0.0, float(minimal_gap / delta))


def worst_case_distribution(
    noise: NoiseMatrix, delta: float, majority_opinion: int = 1
) -> np.ndarray:
    """A delta-biased distribution minimizing the post-noise bias gap.

    Useful as an adversarial initial condition for plurality-consensus
    experiments (it is the hardest delta-biased starting point for the given
    noise matrix).
    """
    _, _, worst_c = minimal_bias_gap(noise, delta, majority_opinion)
    return worst_c


def sufficient_condition_epsilon(noise: NoiseMatrix) -> Tuple[float, float]:
    """Eq. (17)/(18) sufficient condition for near-uniform matrices.

    For a matrix with constant-ish diagonal ``p`` (we take ``p = min_i p_ii``)
    and off-diagonal entries within ``[q_l, q_u]``, Section 4 shows that with
    ``epsilon = (p - q_u) / 2`` the matrix is (epsilon, delta)-m.p. for every
    ``delta`` with ``(p - q_u) * delta / 2 >= q_u - q_l``.

    Returns
    -------
    (epsilon, delta_min):
        ``epsilon`` as defined above, and the smallest ``delta`` for which the
        sufficient condition guarantees the property (``inf`` if the
        condition can never hold, e.g. when ``p <= q_u``).
    """
    matrix = noise.matrix
    k = noise.num_opinions
    if k < 2:
        return np.inf, 0.0
    diagonal = float(np.min(np.diag(matrix)))
    off_mask = ~np.eye(k, dtype=bool)
    q_u = float(matrix[off_mask].max())
    q_l = float(matrix[off_mask].min())
    epsilon = (diagonal - q_u) / 2.0
    if epsilon <= 0:
        return max(epsilon, 0.0), np.inf
    if q_u == q_l:
        return epsilon, 0.0
    delta_min = 2.0 * (q_u - q_l) / (diagonal - q_u)
    return epsilon, delta_min if delta_min <= 1.0 else np.inf
