"""Approximate consensus: midpoint-of-extremes over ``n - f`` accepted values.

The sixth baseline rule, adapted from the classical Byzantine approximate
agreement protocol (Dolev et al.): each node gathers the values of the
``A = n - f`` nodes it accepts (the non-faulty quorum for the standard
resilience bound ``f = floor((n - 1) / 3)``, so ``n > 2f`` always holds),
discards nothing further, and moves to the midpoint of the extremes of the
accepted multiset.  Repeating for

``p_end = ceil(log(eps / K) / log(f / (n - f)))``

phases (``K = max(1, k - 1)`` the initial value spread) shrinks the value
interval below ``eps``; after ``p_end`` phases the rule terminates and
:meth:`step` becomes a no-op.

The adaptation to this repository's noisy pull substrate: opinions
``1..k`` are the value space, and a node's accepted multiset is modeled as
``A`` i.i.d. draws from the *conditioned noisy observation law* — the
noise-perturbed opinion shares renormalized over opinionated targets (an
accepted value is always an opinion, never "undecided").  The midpoint
``(min + max + 1) // 2`` is rounded half-up to stay on the integer opinion
grid.  Because the extremes of ``A`` i.i.d. draws have the closed-form law

``P(min = a, max = b) = F(a, b) - F(a+1, b) - F(a, b-1) + F(a+1, b-1)``,
``F(a, b) = (sum of the conditioned pmf over [a, b]) ** A``,

every node's per-round update law is an ``O(k^2)`` computation shared
verbatim by all three tiers: the sequential engine draws ``n`` values from
it, the batched engine draws per trial row, and the counts engine draws one
``multinomial(n, law)`` per trial — identical in distribution by
construction, so cross-tier agreement is exact, not approximate.

Every node (undecided ones included) resamples each phase, so the
population is fully opinionated after one step; a trial whose population
holds *no* opinion carries no information and is left unchanged.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.state import (
    EnsembleState,
    PopulationState,
    opinion_counts_matrix,
)
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import EnsembleRandomState, RandomState

__all__ = [
    "ApproximateConsensusDynamics",
    "EnsembleApproximateConsensusDynamics",
    "EnsembleCountsApproximateConsensusDynamics",
    "byzantine_fault_tolerance",
    "interval_midpoint_law",
    "phase_budget",
]


def byzantine_fault_tolerance(num_nodes: int) -> int:
    """The standard resilience bound ``f = floor((n - 1) / 3)``.

    The largest ``f`` with ``n > 3f``, which in particular satisfies the
    ``n > 2f`` requirement of the approximate agreement protocol.
    """
    return (int(num_nodes) - 1) // 3


def phase_budget(num_nodes: int, num_opinions: int, epsilon: float) -> int:
    """Phases until the value interval provably shrinks below ``epsilon``.

    ``ceil(log(eps / K) / log(f / (n - f)))`` with ``K = max(1, k - 1)``
    the initial opinion spread; each phase contracts the interval by a
    factor ``f / (n - f) < 1/2``.  With ``f = 0`` one phase already yields
    exact agreement, so the budget floors at 1.
    """
    fault_tolerance = byzantine_fault_tolerance(num_nodes)
    if fault_tolerance == 0:
        return 1
    spread = max(1, int(num_opinions) - 1)
    contraction = fault_tolerance / (num_nodes - fault_tolerance)
    return max(1, math.ceil(math.log(epsilon / spread) / math.log(contraction)))


def _validate_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(
            f"epsilon must be in (0, 1) for approximate consensus, "
            f"got {epsilon}"
        )
    return epsilon


def interval_midpoint_law(
    counts: np.ndarray,
    num_nodes: int,
    noise: NoiseMatrix,
    acceptance: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial law of one midpoint-of-extremes update, shape ``(R, k)``.

    ``counts`` is the ``(R, k)`` opinion-count matrix.  Row ``r`` of the
    result is the pmf of a single node's next opinion in trial ``r``: the
    midpoint ``(a + b + 1) // 2`` of the extremes ``(a, b)`` of
    ``acceptance`` i.i.d. draws from the conditioned noisy observation law
    of that trial.  The second return is the ``(R,)`` mask of rows that
    carry any opinion mass; rows outside it have an undefined (all-zero)
    law and must be left unchanged by the caller.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_trials, num_opinions = counts.shape
    shares = counts / int(num_nodes)
    noisy = shares @ noise.matrix
    totals = noisy.sum(axis=1)
    has_mass = totals > 0.0
    conditioned = np.zeros_like(noisy)
    np.divide(noisy, totals[:, np.newaxis], out=conditioned,
              where=has_mass[:, np.newaxis])
    # Prefix sums with a leading zero column: S(a, b) = prefix[b] -
    # prefix[a - 1] is the conditioned mass of opinions a..b (1-based).
    prefix = np.concatenate(
        [np.zeros((num_trials, 1)), np.cumsum(conditioned, axis=1)], axis=1
    )

    def covered(low: int, high: int) -> np.ndarray:
        # F(a, b): probability that all `acceptance` draws land in [a, b].
        if low > high:
            return np.zeros(num_trials)
        mass = np.clip(prefix[:, high] - prefix[:, low - 1], 0.0, 1.0)
        return mass ** acceptance

    law = np.zeros((num_trials, num_opinions))
    for low in range(1, num_opinions + 1):
        for high in range(low, num_opinions + 1):
            probability = (
                covered(low, high)
                - covered(low + 1, high)
                - covered(low, high - 1)
                + covered(low + 1, high - 1)
            )
            midpoint = (low + high + 1) // 2
            law[:, midpoint - 1] += np.clip(probability, 0.0, None)
    norms = law.sum(axis=1)
    np.divide(law, norms[:, np.newaxis], out=law,
              where=(norms > 0.0)[:, np.newaxis])
    return law, has_mass & (norms > 0.0)


def _sample_opinions(
    law_row: np.ndarray, num_nodes: int, generator: np.random.Generator
) -> np.ndarray:
    """Draw ``num_nodes`` opinions (1-based) i.i.d. from ``law_row``."""
    cdf = np.cumsum(law_row)
    uniforms = generator.random(num_nodes)
    indices = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(indices, law_row.shape[0] - 1).astype(np.int64) + 1


class ApproximateConsensusDynamics(OpinionDynamics):
    """Sequential-tier approximate consensus (midpoint of extremes)."""

    name = "approximate-consensus"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: RandomState = None,
        *,
        epsilon: float = 0.1,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.epsilon = _validate_epsilon(epsilon)
        self.fault_tolerance = byzantine_fault_tolerance(self.num_nodes)
        self.acceptance = self.num_nodes - self.fault_tolerance
        self.phase_budget = phase_budget(
            self.num_nodes, self.num_opinions, self.epsilon
        )
        self._phases_done = 0

    def run(self, *args, **kwargs):
        self._phases_done = 0
        return super().run(*args, **kwargs)

    def step(self, state: PopulationState) -> None:
        """One phase: every node jumps to its accepted-interval midpoint."""
        self._check_state(state)
        if self._phases_done >= self.phase_budget:
            return
        self._phases_done += 1
        counts = state.opinion_counts()[np.newaxis, :]
        law, has_mass = interval_midpoint_law(
            counts, self.num_nodes, self.noise, self.acceptance
        )
        if has_mass[0]:
            state.opinions[:] = _sample_opinions(
                law[0], self.num_nodes, self._rng
            )


class EnsembleApproximateConsensusDynamics(EnsembleOpinionDynamics):
    """Approximate consensus batched over ``R`` independent trials."""

    name = "approximate-consensus"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
        *,
        epsilon: float = 0.1,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.epsilon = _validate_epsilon(epsilon)
        self.fault_tolerance = byzantine_fault_tolerance(self.num_nodes)
        self.acceptance = self.num_nodes - self.fault_tolerance
        self.phase_budget = phase_budget(
            self.num_nodes, self.num_opinions, self.epsilon
        )
        self._phases_done = 0

    def run(self, *args, **kwargs):
        self._phases_done = 0
        return super().run(*args, **kwargs)

    def step(
        self, state: EnsembleState, random_state: EnsembleRandomState
    ) -> None:
        """One phase over every trial of the batch."""
        if self._phases_done >= self.phase_budget:
            return
        self._phases_done += 1
        counts = opinion_counts_matrix(
            state.opinions, self.num_opinions, validate=False
        )
        law, has_mass = interval_midpoint_law(
            counts, self.num_nodes, self.noise, self.acceptance
        )
        for row, generator in enumerate(random_state):
            if has_mass[row]:
                state.opinions[row] = _sample_opinions(
                    law[row], self.num_nodes, generator
                )


class EnsembleCountsApproximateConsensusDynamics(EnsembleCountsDynamics):
    """Approximate consensus on ``(R, k)`` sufficient statistics.

    All ``n`` nodes of a trial resample i.i.d. from the same midpoint law,
    so the new counts are exactly one ``multinomial(n, law)`` draw — no
    per-group decomposition is needed (a node's own opinion does not enter
    the update).  The merged round loop takes the phase of a run from its
    round index: rounds ``1..phase_budget`` resample, later rounds leave
    the counts unchanged.
    """

    name = "approximate-consensus"
    rule_family = "approximate"

    def __init__(
        self,
        num_nodes: int,
        noise: NoiseMatrix,
        random_state: EnsembleRandomState = None,
        *,
        epsilon: float = 0.1,
    ) -> None:
        super().__init__(num_nodes, noise, random_state)
        self.epsilon = _validate_epsilon(epsilon)
        self.fault_tolerance = byzantine_fault_tolerance(self.num_nodes)
        self.acceptance = self.num_nodes - self.fault_tolerance
        self.phase_budget = phase_budget(
            self.num_nodes, self.num_opinions, self.epsilon
        )
