"""Experiment E1 — Theorem 1: noisy rumor spreading in ``O(log n / eps^2)`` rounds.

For a grid of population sizes ``n`` and noise parameters ``eps`` (with the
canonical uniform-noise matrix over ``k`` opinions), the experiment runs the
full two-stage protocol from a single source and records:

* the empirical success probability (every node ends with the source's
  opinion) with a Wilson confidence interval,
* the mean number of communication rounds,
* the theoretical clock ``log2(n)/eps^2`` the rounds should scale with.

A final least-squares fit of mean rounds against the clock summarizes the
scaling; Theorem 1 predicts a near-constant proportionality factor and
success probability close to 1 throughout the grid (for ``eps`` well above
the ``n^(-1/4)`` threshold explored separately in E9).

Every grid point is one ``simulate(Scenario(workload="rumor", ...))`` call
seeded with ``derive_seed(random_state, row)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.convergence import estimate_success_probability, fit_round_complexity
from repro.core.schedule import theoretical_round_complexity
from repro.experiments.results import ExperimentTable
from repro.experiments.runner import summarize
from repro.experiments.spec import register_experiment
from repro.sim import Scenario, resolve_trial_engine, simulate
from repro.utils.rng import RandomState, derive_seed

__all__ = ["RumorScalingConfig", "run"]

_TITLE = "Rumor spreading: success rate and round count vs. n and epsilon"
_PAPER_CLAIM = (
    "Theorem 1: with an (eps, delta)-majority-preserving noise matrix, "
    "rumor spreading with k opinions succeeds w.h.p. in O(log n / eps^2) rounds"
)


@dataclass
class RumorScalingConfig:
    """Parameters of the E1 sweep.

    ``trial_engine`` selects how the repeated trials of every grid point are
    executed: ``"batched"`` (the vectorized ensemble, default),
    ``"sequential"`` (the reference single-trial loop), ``"counts"`` (the
    sufficient-statistics tier) or ``"auto"`` (batched or counts by ``n``).
    """

    num_nodes_grid: Sequence[int] = (500, 1000, 2000)
    epsilon_grid: Sequence[float] = (0.2, 0.3, 0.4)
    num_opinions: int = 3
    num_trials: int = 5
    round_scale: float = 1.0
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "RumorScalingConfig":
        """A configuration that completes in well under a minute."""
        return cls(
            num_nodes_grid=(300, 600, 1200),
            epsilon_grid=(0.25, 0.4),
            num_opinions=3,
            num_trials=3,
        )

    @classmethod
    def full(cls) -> "RumorScalingConfig":
        """A configuration closer to the asymptotic regime (a few minutes)."""
        return cls(
            num_nodes_grid=(1000, 2000, 4000, 8000),
            epsilon_grid=(0.15, 0.2, 0.3, 0.4),
            num_opinions=4,
            num_trials=10,
        )


@register_experiment(
    experiment_id="E1",
    description="Theorem 1: rumor-spreading scaling",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential", "counts"),
    config_cls=RumorScalingConfig,
)
def run(
    config: Optional[RumorScalingConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E1 sweep and return the result table."""
    config = config or RumorScalingConfig.quick()
    table = ExperimentTable(
        experiment_id="E1",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    mean_rounds: List[float] = []
    nodes_for_fit: List[int] = []
    eps_for_fit: List[float] = []
    for num_nodes in config.num_nodes_grid:
        for epsilon in config.epsilon_grid:
            result = simulate(Scenario(
                workload="rumor",
                num_nodes=num_nodes,
                num_opinions=config.num_opinions,
                epsilon=epsilon,
                round_scale=config.round_scale,
                engine=resolve_trial_engine(config.trial_engine, num_nodes),
                num_trials=config.num_trials,
                seed=derive_seed(random_state, len(table)),
            ))
            success_rate, interval = estimate_success_probability(
                result.successes
            )
            rounds_summary = summarize(result.rounds)
            clock = theoretical_round_complexity(num_nodes, epsilon)
            table.add_record(
                n=num_nodes,
                epsilon=epsilon,
                k=config.num_opinions,
                trials=config.num_trials,
                success_rate=success_rate,
                success_low=interval[0],
                success_high=interval[1],
                mean_rounds=rounds_summary["mean"],
                theory_clock=clock,
                rounds_per_clock=rounds_summary["mean"] / clock,
            )
            mean_rounds.append(rounds_summary["mean"])
            nodes_for_fit.append(num_nodes)
            eps_for_fit.append(epsilon)
    fit = fit_round_complexity(nodes_for_fit, eps_for_fit, mean_rounds)
    table.add_note(
        f"least-squares fit: rounds ~ {fit.constant:.2f} * log2(n)/eps^2 "
        f"(relative residual {fit.relative_residual:.2%}); "
        f"trial engine: {config.trial_engine}"
    )
    return table
