"""Golden pins of the counts-protocol tier.

``counts_golden.json`` records per-seed ``simulate()`` outputs of the counts
tier (final counts, rounds, successes and a digest of every phase record's
opinion distributions) for a fixed set of points, plus the runner's counts
Stage-1 and Stage-2 trajectories.  The values were captured before the
counts tier was collapsed onto the heterogeneous batch, so these tests pin
today's engine to the numbers of the previous implementation rather than to
itself.

The points cover every vote-law path of the counts tier: rumor ``k = 2``,
plurality ``k = 3`` on the table and dense paths, plurality ``k = 5`` whose
final phase takes the bounded-chunk sampler, and the crash, omission and
liar adversaries.

Regenerate (only when a change to the draw order or to a law value is
intended and has passed ``pytest -m agreement``) with::

    PYTHONPATH=src python tests/core/test_counts_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.state import PopulationState
from repro.experiments.runner import (
    stage1_trial_trajectories,
    stage2_trial_trajectories,
)
from repro.faults import FaultModel
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate
from repro.sim.result import SimulationResult

GOLDEN_PATH = Path(__file__).with_name("counts_golden.json")

SEEDS = (0, 1, 2)
NUM_TRIALS = 4

#: label -> Scenario keyword arguments (engine, trials and seed are added).
POINTS = {
    "rumor-k2": dict(workload="rumor", num_nodes=10**4, num_opinions=2,
                     epsilon=0.3),
    "plurality-k3-table-dense": dict(workload="plurality", num_nodes=10**4,
                                     num_opinions=3, epsilon=0.3, bias=0.1),
    "plurality-k3-n2000": dict(workload="plurality", num_nodes=2000,
                               num_opinions=3, epsilon=0.3, bias=0.2),
    "plurality-k5-chunk": dict(workload="plurality", num_nodes=10**4,
                               num_opinions=5, epsilon=0.3, bias=0.1),
    "crash-rumor-k2": dict(workload="rumor", num_nodes=2000, num_opinions=2,
                           epsilon=0.3,
                           faults=FaultModel(kind="crash", fraction=0.05,
                                             crash_round=40)),
    "omission-plurality-k3": dict(workload="plurality", num_nodes=2000,
                                  num_opinions=3, epsilon=0.3, bias=0.2,
                                  faults=FaultModel(kind="omission",
                                                    fraction=0.1)),
    "liar-plurality-k3": dict(workload="plurality", num_nodes=2000,
                              num_opinions=3, epsilon=0.3, bias=0.2,
                              faults=FaultModel(kind="liar", fraction=0.1)),
}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


@contextmanager
def _capture_ensemble_results():
    """Record every engine result ``simulate()`` adapts, in call order."""
    captured = []
    descriptor = SimulationResult.__dict__["from_ensemble_result"]
    original = SimulationResult.from_ensemble_result

    def spy(result, **kwargs):
        captured.append(result)
        return original(result, **kwargs)

    SimulationResult.from_ensemble_result = staticmethod(spy)
    try:
        yield captured
    finally:
        SimulationResult.from_ensemble_result = descriptor


def simulate_record(label: str, seed: int) -> dict:
    scenario = Scenario(
        engine="counts", num_trials=NUM_TRIALS, seed=seed, **POINTS[label]
    )
    with _capture_ensemble_results() as captured:
        result = simulate(scenario)
    (ensemble,) = captured
    records = list(ensemble.stage1_records) + list(ensemble.stage2_records)
    return {
        "final_counts": np.asarray(result.final_opinion_counts).tolist(),
        "rounds": np.asarray(result.rounds).tolist(),
        "successes": np.asarray(result.successes).tolist(),
        "phase_distributions_sha256": _digest(
            record.opinion_distributions for record in records
        ),
    }


def trajectory_records(seed: int) -> dict:
    noise2 = uniform_noise_matrix(2, 0.3)
    noise3 = uniform_noise_matrix(3, 0.3)
    stage1 = stage1_trial_trajectories(
        PopulationState.single_source(10**4, 2, 1), noise2, 0.3, NUM_TRIALS,
        seed, trial_engine="counts",
    )
    stage2 = stage2_trial_trajectories(
        PopulationState.from_fractions(10**4, [0.4, 0.33, 0.27],
                                       random_state=0),
        noise3, 0.3, NUM_TRIALS, seed, trial_engine="counts",
    )
    return {
        "stage1_sha256": _digest(
            [stage1.opinionated_fractions, stage1.biases]
        ),
        "stage2_sha256": _digest([stage2.biases]),
        "stage2_consensus": stage2.consensus.tolist(),
    }


def compute_golden() -> dict:
    return {
        "points": {
            label: {str(seed): simulate_record(label, seed) for seed in SEEDS}
            for label in POINTS
        },
        "trajectories": {str(seed): trajectory_records(seed) for seed in SEEDS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(POINTS))
def test_simulate_counts_matches_golden(golden, label, seed):
    assert simulate_record(label, seed) == golden["points"][label][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_runner_counts_trajectories_match_golden(golden, seed):
    assert trajectory_records(seed) == golden["trajectories"][str(seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
