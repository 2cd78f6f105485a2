"""Experiment E7 — Section 4: which noise matrices preserve the majority.

The experiment evaluates the paper's worked examples (plus the other noise
shapes discussed in the introduction) with the exact LP checker of
Definition 2 and, where applicable, the Eq. (17)/(18) sufficient condition:

* the k-opinion uniform-noise matrix — m.p. for every ``delta > 0``;
* the diagonally dominant 3x3 counterexample — fails to preserve even the
  plurality for ``eps, delta < 1/6``;
* cyclic-shift ("close opinion") noise and reset noise — illustrating the
  introduction's point that not every noise pattern admits consensus;
* a random near-uniform matrix of the Eq. (17) form.

For the counterexample the experiment additionally runs the full protocol to
show the *dynamic* consequence: consensus on the original plurality opinion
is not reached, matching Section 4's argument that no anonymous protocol can
recover it.  That repeated-trial check is one
``simulate(Scenario(workload="plurality", noise=..., shares=...))`` call
seeded with ``derive_seed(random_state, 0)``.  It runs on the batched
ensemble engine by default; set ``trial_engine="sequential"`` to
cross-check against the reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.results import ExperimentTable
from repro.noise.families import (
    cyclic_shift_matrix,
    diagonally_dominant_counterexample,
    near_uniform_matrix,
    reset_matrix,
    uniform_noise_matrix,
)
from repro.noise.majority_preserving import (
    check_majority_preserving,
    epsilon_for_delta,
    sufficient_condition_epsilon,
    worst_case_distribution,
)
from repro.experiments.spec import register_experiment
from repro.sim import Scenario, resolve_trial_engine, simulate
from repro.utils.rng import RandomState, as_generator, derive_seed

__all__ = ["NoiseMatrixConfig", "run"]

_TITLE = "(eps, delta)-majority preservation of the Section-4 example matrices"
_PAPER_CLAIM = (
    "Section 4: the uniform-noise generalization of Eq. (1) is m.p. for every "
    "delta; the diagonally dominant counterexample fails for eps, delta < 1/6; "
    "Eq. (18) gives a sufficient condition for near-uniform matrices"
)


@dataclass
class NoiseMatrixConfig:
    """Parameters of the E7 evaluation."""

    epsilon: float = 0.1
    delta_grid: Sequence[float] = (0.05, 0.1, 0.3)
    dynamic_num_nodes: int = 1000
    dynamic_trials: int = 3
    trial_engine: str = "batched"

    @classmethod
    def quick(cls) -> "NoiseMatrixConfig":
        """A configuration that completes in seconds."""
        return cls(dynamic_num_nodes=600, dynamic_trials=2)

    @classmethod
    def full(cls) -> "NoiseMatrixConfig":
        """A configuration with more dynamic-consequence trials."""
        return cls(dynamic_num_nodes=4000, dynamic_trials=10,
                   delta_grid=(0.02, 0.05, 0.1, 0.2, 0.3))


def _example_matrices(epsilon: float, rng: np.random.Generator):
    """The catalogue of matrices evaluated by E7."""
    return [
        uniform_noise_matrix(3, epsilon),
        uniform_noise_matrix(5, epsilon),
        diagonally_dominant_counterexample(epsilon),
        cyclic_shift_matrix(4, 2.0 * epsilon),
        reset_matrix(3, 2.0 * epsilon),
        near_uniform_matrix(4, 0.55, 0.10, 0.20, rng),
    ]


@register_experiment(
    experiment_id="E7",
    description="Section 4: majority-preserving matrices",
    title=_TITLE,
    paper_claim=_PAPER_CLAIM,
    supported_engines=("batched", "sequential", "counts"),
    config_cls=NoiseMatrixConfig,
)
def run(
    config: Optional[NoiseMatrixConfig] = None,
    random_state: RandomState = 0,
) -> ExperimentTable:
    """Run the E7 evaluation and return the result table."""
    config = config or NoiseMatrixConfig.quick()
    rng = as_generator(random_state)
    table = ExperimentTable(
        experiment_id="E7",
        title=_TITLE,
        paper_claim=_PAPER_CLAIM,
    )
    for matrix in _example_matrices(config.epsilon, rng):
        sufficient_eps, sufficient_delta = sufficient_condition_epsilon(matrix)
        for delta in config.delta_grid:
            report = check_majority_preserving(
                matrix, config.epsilon, delta, majority_opinion=1
            )
            table.add_record(
                matrix=matrix.name,
                k=matrix.num_opinions,
                delta=delta,
                lp_worst_gap=report.minimal_gap,
                effective_epsilon=epsilon_for_delta(matrix, delta),
                majority_preserving=report.is_majority_preserving,
                preserves_plurality=report.preserves_plurality,
                sufficient_epsilon=sufficient_eps,
                sufficient_delta_min=sufficient_delta,
            )

    # Dynamic consequence of the counterexample: run the protocol from the
    # worst-case delta-biased distribution returned by the LP (the paper's
    # Section-4 example written in the row-vector convention of Eq. (2)).
    counterexample = diagonally_dominant_counterexample(config.epsilon)
    delta = 0.1
    adversarial_shares = worst_case_distribution(counterexample, delta, 1)
    adversarial_shares = adversarial_shares / adversarial_shares.sum()
    result = simulate(Scenario(
        workload="plurality",
        num_nodes=config.dynamic_num_nodes,
        num_opinions=counterexample.num_opinions,
        epsilon=config.epsilon,
        noise=counterexample,
        shares=tuple(float(share) for share in adversarial_shares),
        engine=resolve_trial_engine(
            config.trial_engine, config.dynamic_num_nodes
        ),
        num_trials=config.dynamic_trials,
        seed=derive_seed(random_state, 0),
    ))
    failure_rate = 1.0 - result.success_rate
    table.add_note(
        "dynamic check: under the diagonally-dominant counterexample the protocol "
        "failed to reach consensus on the original plurality in "
        f"{failure_rate:.0%} of {config.dynamic_trials} trials (expected: all)"
    )
    return table
