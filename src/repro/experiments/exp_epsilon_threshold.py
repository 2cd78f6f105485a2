"""Experiment E9 — Appendix D: behaviour around the ``eps = n^(-1/4)`` threshold.

Theorem 1 requires ``eps = Omega(n^(-1/4 + eta))``.  Appendix D argues that
for ``eps = Theta(n^(-1/4 - eta))`` the two-stage protocol (with its standard
phase structure) no longer solves rumor spreading in ``O(log n / eps^2)``
rounds: after phase 0 only ``O(log n / eps^2)`` nodes are opinionated and the
bias handed to the next phase is ``~ eps^2 / 2 = n^(-1/2 - 2 eta)``, below the
``sqrt(log n / n)`` level Stage 2 needs.

The experiment fixes ``n`` and sweeps ``eps`` across the threshold, running
the full protocol and recording the success rate and the bias at the end of
Stage 1 relative to the ``sqrt(log n / n)`` requirement.  The reproduced
trend: success is reliable for ``eps`` comfortably above ``n^(-1/4)`` and
degrades as ``eps`` crosses below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.convergence import estimate_success_probability
from repro.analysis.theory import theoretical_bias_after_stage1
from repro.experiments.results import ExperimentTable
from repro.experiments.spec import register_experiment
from repro.sim import Scenario, ScenarioGrid, resolve_trial_engine, simulate_sweep
from repro.utils.rng import RandomState, derive_seed

__all__ = ["EpsilonThresholdConfig", "run"]

_TITLE = "Success across the eps ~ n^(-1/4) noise threshold"
_PAPER_CLAIM = (
    "Theorem 1 requires eps = Omega(n^(-1/4 + eta)); Appendix D argues the "
    "protocol's phase structure fails to deliver the required "
    "sqrt(log n / n) bias to Stage 2 when eps = Theta(n^(-1/4 - eta))"
)


@dataclass
class EpsilonThresholdConfig:
    """Parameters of the E9 sweep.

    ``trial_engine`` selects the repeated-trial execution engine
    (``"batched"`` vectorized ensemble, or the ``"sequential"`` reference
    loop).
    """

    num_nodes: int = 2000
    num_opinions: int = 2
    epsilon_over_threshold: Sequence[float] = (3.0, 2.0, 1.0, 0.6, 0.4)
    num_trials: int = 4
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "EpsilonThresholdConfig":
        """A configuration that completes in under a minute."""
        return cls(
            num_nodes=1200,
            epsilon_over_threshold=(2.5, 1.0, 0.5),
            num_trials=3,
        )

    @classmethod
    def full(cls) -> "EpsilonThresholdConfig":
        """A configuration with a larger population and finer sweep."""
        return cls(
            num_nodes=10000,
            epsilon_over_threshold=(4.0, 2.0, 1.5, 1.0, 0.75, 0.5, 0.35),
            num_trials=8,
        )


@register_experiment(
    experiment_id="E9",
    description="Appendix D: epsilon threshold",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential", "counts"),
    config_cls=EpsilonThresholdConfig,
)
def run(
    config: Optional[EpsilonThresholdConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E9 sweep and return the result table."""
    config = config or EpsilonThresholdConfig.quick()
    table = ExperimentTable(
        experiment_id="E9",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    threshold = config.num_nodes ** (-0.25)
    required_bias = theoretical_bias_after_stage1(config.num_nodes)
    epsilons = [
        min(0.45, multiplier * threshold)
        for multiplier in config.epsilon_over_threshold
    ]
    # One batched sweep over the epsilon axis: the counts tier fuses every
    # grid point into a single heterogeneous ensemble, other tiers fall
    # back to per-point simulate() — results are bitwise identical to a
    # serial loop over the grid's scenarios either way.
    grid = ScenarioGrid(
        Scenario(
            workload="rumor",
            num_nodes=config.num_nodes,
            num_opinions=config.num_opinions,
            epsilon=epsilons[0],
            engine=resolve_trial_engine(config.trial_engine, config.num_nodes),
            num_trials=config.num_trials,
            seed=derive_seed(random_state, 0),
            correct_opinion=1,
        ),
        {"epsilon": epsilons},
    )
    sweep = simulate_sweep(grid)
    for epsilon, result in zip(epsilons, sweep.results):
        success_rate, interval = estimate_success_probability(
            [bool(success) for success in result.successes]
        )
        mean_stage1_bias = (
            float(np.mean(result.bias_after_stage1))
            if result.bias_after_stage1 is not None
            else float("nan")
        )
        mean_rounds = float(np.mean(result.rounds))
        table.add_record(
            n=config.num_nodes,
            epsilon=epsilon,
            eps_over_threshold=epsilon / threshold,
            success_rate=success_rate,
            success_low=interval[0],
            success_high=interval[1],
            mean_stage1_bias=mean_stage1_bias,
            required_stage2_bias=required_bias,
            stage1_bias_sufficient=mean_stage1_bias >= required_bias,
            mean_rounds=mean_rounds,
        )
    table.add_note(
        f"threshold n^(-1/4) = {threshold:.4f} for n = {config.num_nodes}; epsilons "
        "are clamped at 0.45 so the uniform-noise matrix stays well-formed; "
        f"trial engine: {config.trial_engine}"
    )
    return table
