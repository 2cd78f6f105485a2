"""The unified engine registry behind :func:`repro.sim.simulate`.

Two layers live here:

* :func:`build_dynamics` — the single factory for every baseline-dynamics
  engine, keyed ``(tier, rule)``: one table over all three sampling tiers.
* :class:`EngineRegistry` — the ``(workload, engine)`` dispatch table the
  facade consults: every supported pair maps to one runner function
  producing a :class:`~repro.sim.result.SimulationResult`.  The concrete
  entries are registered by :mod:`repro.sim.facade` at import time; future
  backends (sharded, async, remote) plug in new pairs without touching any
  call site.

The complete-graph delivery engines of the per-node tiers are built by
:func:`repro.network.delivery.make_delivery_engine` (exported by
:mod:`repro.sim`, which loads it on first use).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.dynamics import DYNAMICS_RULES
from repro.dynamics.base import (
    EnsembleCountsDynamics,
    EnsembleOpinionDynamics,
    OpinionDynamics,
)
from repro.dynamics.approximate_consensus import (
    ApproximateConsensusDynamics,
    EnsembleApproximateConsensusDynamics,
    EnsembleCountsApproximateConsensusDynamics,
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
from repro.utils.rng import EnsembleRandomState

__all__ = [
    "ENGINE_TIERS",
    "DYNAMICS_RULES",
    "EngineRegistry",
    "ENGINE_REGISTRY",
    "build_dynamics",
]

#: The concrete execution tiers every workload can be served on.  The
#: first three sample trajectories; ``analytic`` evolves the exact state
#: distribution and draws no randomness at all.
ENGINE_TIERS = ("sequential", "batched", "counts", "analytic")

#: The one dynamics-class table all three tiers share, keyed ``(tier, rule)``.
_DYNAMICS_CLASSES: Dict[Tuple[str, str], type] = {
    ("sequential", "voter"): VoterDynamics,
    ("sequential", "3-majority"): ThreeMajorityDynamics,
    ("sequential", "h-majority"): HMajorityDynamics,
    ("sequential", "undecided-state"): UndecidedStateDynamics,
    ("sequential", "median-rule"): MedianRuleDynamics,
    ("sequential", "approximate-consensus"): ApproximateConsensusDynamics,
    ("batched", "voter"): EnsembleVoterDynamics,
    ("batched", "3-majority"): EnsembleThreeMajorityDynamics,
    ("batched", "h-majority"): EnsembleHMajorityDynamics,
    ("batched", "undecided-state"): EnsembleUndecidedStateDynamics,
    ("batched", "median-rule"): EnsembleMedianRuleDynamics,
    ("batched", "approximate-consensus"): EnsembleApproximateConsensusDynamics,
    ("counts", "voter"): EnsembleCountsVoterDynamics,
    ("counts", "3-majority"): EnsembleCountsThreeMajorityDynamics,
    ("counts", "h-majority"): EnsembleCountsHMajorityDynamics,
    ("counts", "undecided-state"): EnsembleCountsUndecidedStateDynamics,
    ("counts", "median-rule"): EnsembleCountsMedianRuleDynamics,
    ("counts", "approximate-consensus"): (
        EnsembleCountsApproximateConsensusDynamics
    ),
}


def _validate_rule(rule: str, sample_size: Optional[int]) -> None:
    if rule not in DYNAMICS_RULES:
        raise ValueError(
            f"rule must be one of {DYNAMICS_RULES}, got {rule!r}"
        )
    if rule == "h-majority" and sample_size is None:
        raise ValueError("rule 'h-majority' requires sample_size")
    if rule != "h-majority" and sample_size is not None:
        raise ValueError(
            f"rule {rule!r} does not take a sample_size "
            "(use 'h-majority' for a custom h)"
        )


def build_dynamics(
    tier: str,
    rule: str,
    num_nodes: int,
    noise: NoiseMatrix,
    random_state: EnsembleRandomState = None,
    *,
    sample_size: Optional[int] = None,
    epsilon: Optional[float] = None,
) -> Union[
    OpinionDynamics, EnsembleOpinionDynamics, EnsembleCountsDynamics
]:
    """Instantiate a baseline-dynamics engine by ``(tier, rule)``.

    ``tier`` is one of :data:`ENGINE_TIERS` and ``rule`` one of
    :data:`DYNAMICS_RULES`; ``sample_size`` is required for (and only
    accepted by) ``"h-majority"``, and ``epsilon`` (the target agreement
    precision) is only accepted by ``"approximate-consensus"``.  The
    sequential classes take a single source; the batched and counts tiers
    draw one stream per trial from ``random_state``.
    """
    if tier not in ENGINE_TIERS:
        raise ValueError(
            f"tier must be one of {ENGINE_TIERS}, got {tier!r}"
        )
    _validate_rule(rule, sample_size)
    if epsilon is not None and rule != "approximate-consensus":
        raise ValueError(
            f"rule {rule!r} does not take an epsilon "
            "(use 'approximate-consensus' for a precision target)"
        )
    extra = {}
    if rule == "approximate-consensus" and epsilon is not None:
        extra["epsilon"] = float(epsilon)
    dynamics_cls = _DYNAMICS_CLASSES[(tier, rule)]
    if rule == "h-majority":
        return dynamics_cls(num_nodes, noise, sample_size, random_state)
    return dynamics_cls(num_nodes, noise, random_state, **extra)


class EngineRegistry:
    """The ``(workload, engine)`` → runner dispatch table of the facade.

    A *runner* is a callable ``(scenario, noise, engine) ->
    SimulationResult`` executing the scenario on one concrete engine tier.
    :func:`repro.sim.facade.simulate` resolves the scenario's engine policy
    to a tier and looks the pair up here; registering a new pair is all a
    future backend needs to become addressable from every call site.
    """

    def __init__(self) -> None:
        self._runners: Dict[Tuple[str, str], Callable] = {}

    def register(
        self, workload: str, *engines: str
    ) -> Callable[[Callable], Callable]:
        """Decorator registering a runner for ``workload`` × ``engines``."""

        def decorator(runner: Callable) -> Callable:
            for engine in engines:
                if engine not in ENGINE_TIERS:
                    raise ValueError(
                        f"engine must be one of {ENGINE_TIERS}, got {engine!r}"
                    )
                self._runners[(workload, engine)] = runner
            return runner

        return decorator

    def get(self, workload: str, engine: str) -> Callable:
        """The runner for ``(workload, engine)``; ``ValueError`` if absent."""
        try:
            return self._runners[(workload, engine)]
        except KeyError:
            raise ValueError(
                f"no engine registered for workload {workload!r} on "
                f"engine {engine!r}; registered pairs: "
                f"{sorted(self._runners)}"
            ) from None

    def engines_for(self, workload: str) -> List[str]:
        """The engine tiers registered for ``workload``, in tier order."""
        return [
            tier
            for tier in ENGINE_TIERS
            if (workload, tier) in self._runners
        ]

    def pairs(self) -> List[Tuple[str, str]]:
        """Every registered ``(workload, engine)`` pair, sorted."""
        return sorted(self._runners)


#: The process-wide registry the facade populates and consults.
ENGINE_REGISTRY = EngineRegistry()
