"""Experiment E13 — ablations of two implementation decisions.

Two implementation choices are ablated here:

1. **Sampling rule.**  Stage 2 has nodes vote on a bounded uniform sample of
   size ``L`` (reservoir semantics, "without replacement"); the ablation
   compares that against (a) sampling with replacement from the received
   multiset and (b) voting on the *entire* received multiset (the
   memory-unbounded variant).  The paper's analysis covers (without
   replacement); the ablation shows the outcome is insensitive to the choice,
   while only the bounded-sample variants respect the memory bound.

2. **Delivery engine.**  The vectorized push engine versus the naive
   per-message reference implementation: statistically they are the same
   process (the tests check distributional agreement), so the ablation here
   records the wall-clock speedup at a fixed workload — the quantity that
   justifies the vectorized design.  (The timing comparison also runs inside
   the benchmark harness, where pytest-benchmark measures it properly.)

The sampling ablation routes through the engine-aware
:func:`~repro.experiments.runner.stage2_trial_trajectories`, so it runs on
the batched ensemble engine by default (``trial_engine="sequential"`` for
the reference loop).  The counts engine is unsupported: the ablated
variants condition on per-node arrival totals, which the sufficient
statistics deliberately discard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


from repro.analysis.convergence import estimate_success_probability
from repro.experiments.results import ExperimentTable
from repro.experiments.runner import stage2_trial_trajectories
from repro.experiments.spec import register_experiment
from repro.experiments.workloads import ensemble_biased_population
from repro.network.push_model import UniformPushModel
from repro.noise.families import uniform_noise_matrix
from repro.utils.rng import RandomState, as_generator, derive_seed

__all__ = ["AblationConfig", "run"]

_TITLE = "Ablations: Stage-2 voting rule and delivery-engine implementation"
_PAPER_CLAIM = (
    "Design decisions: reservoir sampling keeps the memory bound "
    "without hurting convergence; the vectorized engine is what makes "
    "laptop-scale sweeps feasible"
)


@dataclass
class AblationConfig:
    """Parameters of the E13 ablations.

    ``trial_engine`` selects the sampling ablation's repeated-trial engine
    (``"batched"`` or ``"sequential"``; the ablated voting rules condition
    on per-node state, so the counts engine is unsupported).
    """

    num_nodes: int = 1200
    num_opinions: int = 3
    epsilon: float = 0.3
    initial_bias: float = 0.08
    num_trials: int = 4
    timing_nodes: int = 400
    timing_rounds: int = 20
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "AblationConfig":
        """A configuration that completes in under a minute."""
        return cls(num_nodes=800, num_trials=3, timing_nodes=200, timing_rounds=10)

    @classmethod
    def full(cls) -> "AblationConfig":
        """A larger ablation."""
        return cls(num_nodes=5000, num_trials=10, timing_nodes=1000, timing_rounds=40)


def _sampling_ablation(
    config: AblationConfig, random_state, table: ExperimentTable
) -> None:
    """Compare the three Stage-2 voting variants."""
    noise = uniform_noise_matrix(config.num_opinions, config.epsilon)
    variants = (
        ("reservoir sample (paper)", "without_replacement", False),
        ("sample with replacement", "with_replacement", False),
        ("full received multiset", "without_replacement", True),
    )
    initial_states = ensemble_biased_population(
        config.num_nodes,
        config.num_opinions,
        config.initial_bias,
        config.num_trials,
        random_state=derive_seed(random_state, 0),
    )
    for label, method, full_multiset in variants:
        trajectories = stage2_trial_trajectories(
            initial_states,
            noise,
            config.epsilon,
            config.num_trials,
            derive_seed(random_state, 1),
            track_opinion=1,
            sampling_method=method,
            use_full_multiset=full_multiset,
            trial_engine=config.trial_engine,
        )
        success_rate, _ = estimate_success_probability(
            [bool(flag) for flag in trajectories.consensus]
        )
        table.add_record(
            ablation="stage2 voting rule",
            variant=label,
            success_rate=success_rate,
            mean_final_bias=float(trajectories.final_biases.mean()),
            speedup=None,
        )


def _engine_ablation(
    config: AblationConfig, random_state, table: ExperimentTable
) -> None:
    """Time the vectorized push engine against the naive reference."""
    noise = uniform_noise_matrix(config.num_opinions, config.epsilon)
    rng = as_generator(random_state)
    sender_opinions = rng.integers(
        1, config.num_opinions + 1, size=config.timing_nodes
    )
    engine = UniformPushModel(config.timing_nodes, noise, rng)

    start = time.perf_counter()
    engine.run_phase(sender_opinions, config.timing_rounds)
    vectorized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    engine.run_phase_naive(sender_opinions, config.timing_rounds)
    naive_seconds = time.perf_counter() - start

    table.add_record(
        ablation="delivery engine",
        variant="vectorized vs naive per-message loop",
        success_rate=None,
        mean_final_bias=None,
        speedup=naive_seconds / max(vectorized_seconds, 1e-9),
    )


@register_experiment(
    experiment_id="E13",
    description="Ablations: sampling rule, engine",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential"),
    config_cls=AblationConfig,
)
def run(
    config: Optional[AblationConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E13 ablations and return the result table."""
    config = config or AblationConfig.quick()
    table = ExperimentTable(
        experiment_id="E13",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    _sampling_ablation(config, random_state, table)
    _engine_ablation(config, random_state, table)
    table.add_note(f"sampling-ablation trial engine: {config.trial_engine}")
    return table
