"""Experiment E12 — baseline comparison under noise.

The related-work section situates the paper's protocol among elementary
dynamics that solve plurality/majority consensus when communication is
reliable: 3-majority [9], h-majority [13, 1], the undecided-state dynamics
[5, 8], the median rule [15] and the plain voter model.  None of those
analyses cover per-message noise, and the paper's contribution is precisely
a protocol that tolerates it.

The experiment starts every algorithm from the same fully opinionated,
weakly biased population and measures success rate (consensus on the initial
plurality opinion), rounds used, and the final bias, both on a noise-free
channel and under the canonical uniform-noise matrix.  The reproduced trend:
without noise the elementary dynamics are fast and reliable; with noise the
one-shot dynamics lose the plurality (or fail to converge within the round
budget) while the paper's two-stage protocol still succeeds, at the cost of
its ``O(log n / eps^2)`` round budget.

Every algorithm on a channel is one ``simulate(Scenario(...))`` call (the
``plurality`` workload for the protocol, ``dynamics`` for the baselines),
seeded with ``derive_seed(random_state, channel)``, so the whole comparison
runs on the batched ensemble engines by default; set
``trial_engine="sequential"`` in the configuration to cross-check against
the reference loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.results import ExperimentTable
from repro.experiments.spec import register_experiment
from repro.noise.families import identity_matrix, uniform_noise_matrix
from repro.sim import Scenario, SimulationResult, resolve_trial_engine, simulate
from repro.utils.rng import RandomState, derive_seed
from repro.utils.validation import require_positive_int

__all__ = ["BaselineComparisonConfig", "run"]

_TITLE = "Protocol vs. elementary dynamics, with and without channel noise"
_PAPER_CLAIM = (
    "Related work: elementary dynamics (3-majority, undecided-state, median "
    "rule, ...) solve plurality/majority consensus on reliable channels; the "
    "paper's protocol additionally tolerates per-message noise"
)


@dataclass
class BaselineComparisonConfig:
    """Parameters of the E12 comparison."""

    num_nodes: int = 1500
    num_opinions: int = 3
    epsilon: float = 0.25
    initial_bias: float = 0.1
    max_rounds_dynamics: int = 300
    num_trials: int = 4
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "BaselineComparisonConfig":
        """A configuration that completes in about a minute."""
        return cls(num_nodes=800, max_rounds_dynamics=150, num_trials=3)

    @classmethod
    def full(cls) -> "BaselineComparisonConfig":
        """A larger comparison (several minutes)."""
        return cls(
            num_nodes=5000,
            max_rounds_dynamics=600,
            num_trials=10,
        )


def _baseline_rules() -> List[Tuple[str, str, Optional[int]]]:
    """(table name, dynamics rule, sample_size) for every baseline dynamic."""
    return [
        ("3-majority", "3-majority", None),
        ("5-majority", "h-majority", 5),
        ("undecided-state", "undecided-state", None),
        ("median-rule", "median-rule", None),
        ("voter", "voter", None),
    ]


@register_experiment(
    experiment_id="E12",
    description="Baseline comparison under noise",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential", "counts"),
    config_cls=BaselineComparisonConfig,
)
def run(
    config: Optional[BaselineComparisonConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E12 comparison and return the result table."""
    config = config or BaselineComparisonConfig.quick()
    require_positive_int(config.num_trials, "num_trials")
    table = ExperimentTable(
        experiment_id="E12",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    engine = resolve_trial_engine(config.trial_engine, config.num_nodes)
    noiseless = identity_matrix(config.num_opinions)
    noisy = uniform_noise_matrix(config.num_opinions, config.epsilon)

    def add_record(algorithm: str, channel: str, result: SimulationResult):
        table.add_record(
            algorithm=algorithm,
            channel=channel,
            success_rate=result.success_rate,
            mean_rounds=result.mean_rounds,
            mean_final_bias=result.mean_final_bias,
        )

    for channel_index, (channel_name, channel) in enumerate(
        (("noise-free", noiseless), ("noisy", noisy))
    ):
        # Every algorithm on this channel starts from the same weakly biased,
        # fully opinionated population: one seed per channel fixes its node
        # placement (irrelevant on the complete graph) and the trial streams.
        common = dict(
            num_nodes=config.num_nodes,
            num_opinions=config.num_opinions,
            epsilon=config.epsilon,
            noise=channel,
            bias=config.initial_bias,
            engine=engine,
            num_trials=config.num_trials,
            seed=derive_seed(random_state, channel_index),
        )
        add_record(
            "two-stage protocol (this paper)",
            channel_name,
            simulate(Scenario(workload="plurality", **common)),
        )
        for name, rule, sample_size in _baseline_rules():
            add_record(name, channel_name, simulate(Scenario(
                workload="dynamics",
                rule=rule,
                sample_size=sample_size,
                max_rounds=config.max_rounds_dynamics,
                **common,
            )))
    table.add_note(
        f"all runs start {config.initial_bias:.0%}-biased toward opinion 1 with every "
        f"node opinionated; dynamics are capped at {config.max_rounds_dynamics} rounds "
        f"(log2(n)/eps^2 = {math.log2(config.num_nodes) / config.epsilon**2:.0f}); "
        f"trial engine: {config.trial_engine}"
    )
    return table
