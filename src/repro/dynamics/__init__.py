"""Baseline opinion dynamics from the literature the paper compares against.

The related-work section of the paper situates its protocol among several
elementary dynamics that solve (noise-free) plurality or majority consensus:

* the **3-majority dynamics** [9] and its **h-majority** generalization
  [13, 1]: every node samples the opinion of ``h`` random nodes and adopts
  the most frequent observed opinion;
* the **undecided-state dynamics** [5, 8]: a node observing a conflicting
  opinion first becomes undecided, and an undecided node adopts the next
  opinion it observes;
* the **median rule / power of two choices** [15]: opinions are treated as
  ordered values and every node moves to the median of its own value and two
  sampled values;
* the plain **voter model**: every node copies one random node's opinion;
* **approximate consensus** (midpoint of extremes over ``n - f`` accepted
  values, in the style of Byzantine approximate agreement): every node
  moves to the midpoint of the smallest and largest opinion among the
  values it accepts, for a phase budget derived from the target precision.

These baselines run here on the same noisy uniform communication substrate
(every observation corrupted by the noise matrix), which is what experiment
E12 uses to show where the paper's two-stage protocol wins: the elementary
dynamics are fast without noise but are not designed to withstand a constant
per-message corruption probability.

Every rule comes in three engines: the sequential :class:`OpinionDynamics`
subclasses (the reference implementations), the batched
:class:`EnsembleOpinionDynamics` subclasses that evolve ``R`` independent
trials over an ``(R, n)`` matrix at once, and the counts-based
:class:`EnsembleCountsDynamics` subclasses that evolve only the ``(R, k)``
opinion-count sufficient statistics — ``O(k^2)`` per round independent of
``n``, which is what scales the baselines to millions of nodes.  The counts
classes carry no round code of their own: every counts run, single or
swept, goes through the merged round loop of
:func:`repro.dynamics.base.run_heterogeneous_counts_dynamics`.

Engines are built by the unified ``(tier, rule)`` registry of
:func:`repro.sim.engines.build_dynamics` (or, one level up, by
``simulate(Scenario(workload="dynamics", rule=...))``).  The historical
per-tier factories :func:`make_dynamics` / :func:`make_ensemble_dynamics` /
:func:`make_counts_dynamics` remain as deprecation shims over that
registry: they construct exactly the same classes with exactly the same
arguments, so existing seeded runs stay bitwise reproducible.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.dynamics.approximate_consensus import (
    ApproximateConsensusDynamics,
    EnsembleApproximateConsensusDynamics,
    EnsembleCountsApproximateConsensusDynamics,
)
from repro.dynamics.base import (
    CountsDynamicsResult,
    DynamicsResult,
    EnsembleCountsDynamics,
    EnsembleDynamicsResult,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.dynamics.h_majority import (
    EnsembleCountsHMajorityDynamics,
    EnsembleCountsThreeMajorityDynamics,
    EnsembleHMajorityDynamics,
    EnsembleThreeMajorityDynamics,
    HMajorityDynamics,
    ThreeMajorityDynamics,
)
from repro.dynamics.median_rule import (
    EnsembleCountsMedianRuleDynamics,
    EnsembleMedianRuleDynamics,
    MedianRuleDynamics,
)
from repro.dynamics.undecided_state import (
    EnsembleCountsUndecidedStateDynamics,
    EnsembleUndecidedStateDynamics,
    UndecidedStateDynamics,
)
from repro.dynamics.voter import (
    EnsembleCountsVoterDynamics,
    EnsembleVoterDynamics,
    VoterDynamics,
)
from repro.noise.matrix import NoiseMatrix
from repro.utils.rng import EnsembleRandomState, RandomState

__all__ = [
    "DYNAMICS_RULES",
    "ApproximateConsensusDynamics",
    "CountsDynamicsResult",
    "DynamicsResult",
    "EnsembleApproximateConsensusDynamics",
    "EnsembleCountsApproximateConsensusDynamics",
    "EnsembleCountsDynamics",
    "EnsembleCountsHMajorityDynamics",
    "EnsembleCountsMedianRuleDynamics",
    "EnsembleCountsThreeMajorityDynamics",
    "EnsembleCountsUndecidedStateDynamics",
    "EnsembleCountsVoterDynamics",
    "EnsembleDynamicsResult",
    "EnsembleHMajorityDynamics",
    "EnsembleMedianRuleDynamics",
    "EnsembleOpinionDynamics",
    "EnsembleThreeMajorityDynamics",
    "EnsembleUndecidedStateDynamics",
    "EnsembleVoterDynamics",
    "HMajorityDynamics",
    "MedianRuleDynamics",
    "OpinionDynamics",
    "ThreeMajorityDynamics",
    "UndecidedStateDynamics",
    "VoterDynamics",
    "make_dynamics",
    "make_ensemble_dynamics",
    "make_counts_dynamics",
]

#: Rule names accepted by :func:`make_dynamics` / :func:`make_ensemble_dynamics`.
DYNAMICS_RULES = (
    "voter",
    "3-majority",
    "h-majority",
    "undecided-state",
    "median-rule",
    "approximate-consensus",
)


def _deprecated_build(
    tier: str,
    legacy_name: str,
    rule: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state,
    sample_size: Optional[int],
    **kwargs,
):
    """Shared body of the three deprecated per-tier factory shims."""
    warnings.warn(
        f"repro.dynamics.{legacy_name} is deprecated; use "
        "repro.sim.engines.build_dynamics (or the repro.sim facade: "
        "simulate(Scenario(workload='dynamics', ...))) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    # Imported lazily: repro.sim.engines imports this package's submodules.
    from repro.sim.engines import build_dynamics

    return build_dynamics(
        tier,
        rule,
        num_nodes,
        noise,
        random_state,
        sample_size=sample_size,
        **kwargs,
    )


def make_dynamics(
    rule: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state: RandomState = None,
    *,
    sample_size: Optional[int] = None,
) -> OpinionDynamics:
    """Deprecated: build a sequential baseline dynamic by rule name.

    A shim over :func:`repro.sim.engines.build_dynamics` (tier
    ``"sequential"``); it constructs the identical class with identical
    arguments, so seeded runs stay bitwise reproducible.
    """
    return _deprecated_build(
        "sequential", "make_dynamics", rule, num_nodes, noise,
        random_state, sample_size,
    )


def make_ensemble_dynamics(
    rule: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state: EnsembleRandomState = None,
    *,
    sample_size: Optional[int] = None,
    rng_mode: str = "per_trial",
) -> EnsembleOpinionDynamics:
    """Deprecated: build a batched baseline dynamic by rule name.

    A shim over :func:`repro.sim.engines.build_dynamics` (tier
    ``"batched"``); it constructs the identical class with identical
    arguments, so seeded runs stay bitwise reproducible.
    """
    return _deprecated_build(
        "batched", "make_ensemble_dynamics", rule, num_nodes, noise,
        random_state, sample_size, rng_mode=rng_mode,
    )


def make_counts_dynamics(
    rule: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state: EnsembleRandomState = None,
    *,
    sample_size: Optional[int] = None,
    rng_mode: str = "per_trial",
) -> EnsembleCountsDynamics:
    """Deprecated: build a counts-engine baseline dynamic by rule name.

    A shim over :func:`repro.sim.engines.build_dynamics` (tier
    ``"counts"``); it constructs the identical class with identical
    arguments, so seeded runs stay bitwise reproducible.
    """
    return _deprecated_build(
        "counts", "make_counts_dynamics", rule, num_nodes, noise,
        random_state, sample_size, rng_mode=rng_mode,
    )
