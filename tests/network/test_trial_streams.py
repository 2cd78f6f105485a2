"""One randomness discipline for every ensemble-level entry point.

The per-node batched tier draws per-trial streams only: a single randomness
source is spawned into one child generator per trial, so handing an entry
point the source gives exactly what handing it
``spawn_generators(R, source)`` gives — for the received-message sampling
methods, the batched pull observations and every engine's batched phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultModel
from repro.faults.delivery import FaultedDeliveryEngine
from repro.faults.injection import FaultedPhaseSampler
from repro.network.balls_bins import BallsIntoBinsProcess
from repro.network.mailbox import EnsembleReceivedMessages
from repro.network.poisson_model import PoissonizedProcess
from repro.network.pull_model import EnsemblePullModel
from repro.network.push_model import UniformPushModel
from repro.noise.families import uniform_noise_matrix
from repro.utils.rng import spawn_generators

NUM_TRIALS = 3
NUM_NODES = 40
NOISE = uniform_noise_matrix(3, 0.3)
_FIXTURE_RNG = np.random.default_rng(2024)
RECEIVED = EnsembleReceivedMessages(
    _FIXTURE_RNG.integers(0, 7, size=(NUM_TRIALS, NUM_NODES, 3))
)
OPINIONS = _FIXTURE_RNG.integers(0, 4, size=(NUM_TRIALS, NUM_NODES))
SENDERS = np.array([[6, 3, 1], [0, 0, 0], [2, 2, 5]])
PULL = EnsemblePullModel(NUM_NODES, NOISE)
NUM_FAULTY = 4


def _faulted_phase(kind, random_state):
    """One batched phase on a fresh faulted engine (fresh crash clock)."""
    crash_round = {"crash_round": 1} if kind == "crash" else {}
    sampler = FaultedPhaseSampler(
        FaultModel(kind=kind, fraction=0.1, **crash_round),
        NUM_FAULTY,
        np.array([2, 1, 0]),
        NOISE.num_opinions,
    )
    engine = FaultedDeliveryEngine(
        NUM_NODES, NUM_NODES + NUM_FAULTY, NOISE, sampler
    )
    return engine.run_ensemble_phase_from_senders(SENDERS, 2, random_state)


#: entry point -> call taking the randomness and returning an array.
ENTRY_POINTS = {
    "uniform_opinion_choice": RECEIVED.uniform_opinion_choice,
    "subsample": lambda rs: RECEIVED.subsample(5, rs),
    "subsample-with-replacement": lambda rs: RECEIVED.subsample(
        5, rs, method="with_replacement"
    ),
    "majority_votes": RECEIVED.majority_votes,
    "majority_votes-sampled": lambda rs: RECEIVED.majority_votes(
        rs, sample_size=5
    ),
    "observe": lambda rs: PULL.observe(OPINIONS, 3, rs).counts,
    "observe_single": lambda rs: PULL.observe_single(OPINIONS, rs),
    "observe_majority_votes": lambda rs: PULL.observe_majority_votes(
        OPINIONS, 3, rs
    ),
    # Past the composition-table budget: observe, then majority_votes.
    "observe_majority_votes-intractable": lambda rs: (
        PULL.observe_majority_votes(OPINIONS, 90, rs)
    ),
    **{
        f"{name}-phase": (
            lambda rs, engine=engine: engine.run_ensemble_phase_from_senders(
                SENDERS, 2, rs
            ).counts
        )
        for name, engine in (
            ("push", UniformPushModel(NUM_NODES, NOISE)),
            ("balls-bins", BallsIntoBinsProcess(NUM_NODES, NOISE)),
            ("poisson", PoissonizedProcess(NUM_NODES, NOISE)),
        )
    },
    **{
        f"faulted-{kind}-phase": (
            lambda rs, kind=kind: _faulted_phase(kind, rs).counts
        )
        for kind in ("crash", "omission", "liar", "adaptive")
    },
}

#: Source factories: each call builds a fresh, identically seeded source.
SOURCES = {
    "int": lambda: 7,
    "seed-sequence": lambda: np.random.SeedSequence(7),
    "generator": lambda: np.random.default_rng(7),
}


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("entry_point", list(ENTRY_POINTS))
def test_single_source_equals_spawned_per_trial_streams(entry_point, source):
    call = ENTRY_POINTS[entry_point]
    make_source = SOURCES[source]
    expected = call(spawn_generators(NUM_TRIALS, make_source()))
    np.testing.assert_array_equal(call(make_source()), expected)
