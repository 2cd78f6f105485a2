"""Benchmark: fault-injection overhead on the counts engine.

Every adversary keeps the counts-tier sufficient-statistics reduction: a
faulted phase adds one ball-delta histogram on top of the fault-free
delivery law, so the per-phase cost stays ``O(k^2)`` per trial regardless
of ``n``.  This benchmark times the crash, omission and random-liar
families.  The
acceptance target of the fault subsystem's performance story:

* at ``n = 10^5``, ``R = 64`` (rumor workload, uniform noise
  ``eps = 0.3``, ``k = 3``) every timed faulted counts run must stay
  within **2x** of the fault-free counts wall time.

All per-family timings are recorded to ``BENCH_faults.json`` in one
schema-versioned document via :func:`record.record_benchmark_results`,
and CI prints that file on every run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -s \
        -o python_files="bench_*.py"

``test_faulted_counts_overhead`` asserts the target directly with
``time.perf_counter`` so it also runs without the pytest-benchmark plugin.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from record import record_benchmark_results

from repro.faults import FaultModel
from repro.sim import Scenario, simulate

NUM_NODES = 100_000
NUM_TRIALS = 64
NUM_OPINIONS = 3
EPSILON = 0.3
OVERHEAD_TARGET = 2.0
REPEATS = 3
RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_faults.json"

FAULT_CASES = (
    ("crash", FaultModel(kind="crash", fraction=0.1, crash_round=3)),
    ("omission", FaultModel(kind="omission", fraction=0.1, drop_rate=0.5)),
    ("liar", FaultModel(kind="liar", fraction=0.1)),
)


def base_scenario() -> Scenario:
    return Scenario(
        workload="rumor",
        num_nodes=NUM_NODES,
        num_opinions=NUM_OPINIONS,
        epsilon=EPSILON,
        engine="counts",
        num_trials=NUM_TRIALS,
        seed=0,
    )


def best_of(scenario: Scenario, repeats: int = REPEATS) -> float:
    """The fastest of ``repeats`` timed simulate() calls (one warmup)."""
    simulate(scenario)
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        simulate(scenario)
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_faulted_counts_overhead():
    """Crash, omission and liar counts runs stay within 2x of fault-free."""
    fault_free = base_scenario()
    baseline = best_of(fault_free)

    entries = {
        "counts_fault_free": {
            "num_nodes": NUM_NODES,
            "num_trials": NUM_TRIALS,
            "num_opinions": NUM_OPINIONS,
            "epsilon": EPSILON,
            "seconds": round(baseline, 4),
        }
    }
    overheads = {}
    for label, faults in FAULT_CASES:
        seconds = best_of(dataclasses.replace(fault_free, faults=faults))
        overheads[label] = seconds / baseline
        entries[f"counts_faulted_{label}"] = {
            "num_nodes": NUM_NODES,
            "num_trials": NUM_TRIALS,
            "fraction": faults.fraction,
            "seconds": round(seconds, 4),
            "overhead_vs_fault_free": round(seconds / baseline, 3),
            "overhead_target": OVERHEAD_TARGET,
        }

    record_benchmark_results(RESULTS_PATH, entries)
    print(
        f"\nfault overhead at n={NUM_NODES}, R={NUM_TRIALS} "
        f"(fault-free {baseline:.3f}s): "
        + ", ".join(
            f"{label} {ratio:.2f}x" for label, ratio in overheads.items()
        )
    )
    for label, ratio in overheads.items():
        assert ratio <= OVERHEAD_TARGET, (
            f"{label}: faulted counts run is {ratio:.2f}x the fault-free "
            f"wall time (target <= {OVERHEAD_TARGET}x)"
        )
