#!/usr/bin/env python3
"""Scenario: running the protocol over an unknown, possibly sparse channel.

Two practical gaps between the paper's model and a deployment are (a) the
noise matrix is usually unknown and (b) the communication topology is rarely
the complete graph.  This example exercises both extensions of the library
through the unified facade:

1. **Channel calibration** — observe a batch of (sent, received) pairs on the
   real channel, estimate the noise matrix, and derive a schedule ``epsilon``
   from the exact LP (with a safety factor);
2. **Topology sensitivity** — describe the calibrated protocol as one
   :class:`repro.Scenario` and re-run it with only the ``topology`` /
   ``degree`` fields changed (complete graph, then random regular graphs of
   decreasing degree), showing where the complete-graph guarantee starts to
   erode.  The random-regular rows form one
   :class:`~repro.sim.ScenarioGrid` over the ``degree`` axis executed by
   :func:`~repro.sim.simulate_sweep`; sparse topologies are per-node by
   nature, so the sweep transparently falls back to per-point sequential
   simulation for them (the batched fusion only applies to counts-tier
   points) while keeping the grid bookkeeping — per-point derived seeds and
   sweep provenance — identical to any other sweep.

Run with::

    python examples/unknown_channel_calibration.py
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import (
    Scenario,
    calibrate_epsilon,
    collect_channel_observations,
    estimation_error,
    simulate,
    uniform_noise_matrix,
)
from repro.sim import ScenarioGrid, simulate_sweep
from repro.utils.tables import format_records

NUM_NODES = 2_000
NUM_OPINIONS = 3
TRUE_EPSILON = 0.3          # hidden from the "operator"
CALIBRATION_SAMPLES = 20_000
TARGET_BIAS = 0.1


def main() -> None:
    # The real channel (unknown to the operator).
    true_channel = uniform_noise_matrix(NUM_OPINIONS, TRUE_EPSILON)

    # Step 1: calibrate from observed transmissions.
    rng = np.random.default_rng(0)
    sent, received = collect_channel_observations(
        true_channel, CALIBRATION_SAMPLES, rng
    )
    epsilon, estimated_channel = calibrate_epsilon(
        sent, received, NUM_OPINIONS, delta=TARGET_BIAS, safety_factor=0.9
    )
    print(f"true channel          : {true_channel.name}")
    print(f"calibration samples   : {CALIBRATION_SAMPLES}")
    print(
        "estimation error      : "
        f"{estimation_error(estimated_channel, true_channel):.4f} "
        "(max per-row total variation)"
    )
    print(f"calibrated epsilon    : {epsilon:.3f} "
          f"(true effective value would be {TRUE_EPSILON * 1.5:.3f})")
    print()

    # Step 2: run the protocol, built from the *estimated* epsilon, on
    # progressively sparser topologies over the *true* channel.  The
    # complete-graph baseline is one Scenario; the random-regular rows are
    # the same Scenario with only topology/degree changed, expressed as a
    # one-axis ScenarioGrid over ``degree``.  (Scenario validation couples
    # degree to topology — complete graphs take no degree — so the
    # baseline cannot share the sparse rows' axis.)
    base = Scenario(
        workload="rumor",
        num_nodes=NUM_NODES,
        num_opinions=NUM_OPINIONS,
        epsilon=epsilon,
        noise=true_channel,
        engine="sequential",
        num_trials=1,
        seed=2,
    )
    complete_result = simulate(base)

    sparse_degrees = (128, 16, 6)
    grid = ScenarioGrid(
        dataclasses.replace(
            base, topology="random_regular", degree=sparse_degrees[0]
        ),
        {"degree": sparse_degrees},
    )
    # Sequential-topology points have no counts-tier fusion; the sweep
    # transparently falls back to per-point simulation while keeping the
    # per-point derived seeds and sweep provenance of any other grid.
    sweep = simulate_sweep(grid)

    def row(label, degree, result, trial=0):
        return {
            "topology": label,
            "degree": degree,
            "rounds": int(result.rounds[trial]),
            "consensus on rumor": bool(result.successes[trial]),
            "correct fraction": round(
                float(result.correct_fractions()[trial]), 3
            ),
        }

    records = [row("complete graph", NUM_NODES - 1, complete_result)]
    for index, result in enumerate(sweep.results):
        degree = grid.point_overrides(index)["degree"]
        records.append(
            row(f"random regular, degree {degree}", degree, result)
        )
    print(format_records(records, title="Calibrated protocol across topologies"))
    print()
    print(
        "Dense topologies behave like the paper's complete graph; once the degree "
        "drops to a small constant the complete-graph analysis no longer applies "
        "and the rumor can be lost (see experiment E14: "
        "python -m repro run-experiment E14)."
    )


if __name__ == "__main__":
    main()
