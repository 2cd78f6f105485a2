"""Benchmark: the counts-tier protocol fast path and its floors.

Two acceptance floors guard the protocol fast-path work (per-phase law
precomputation, round-loop fusion, batched sweep draws):

* **Million-node protocol** — the ``counts_protocol_million`` config
  (two-stage protocol, ``n = 10^6``, ``R = 64``, ``k = 3``, uniform noise
  ``eps = 0.3``) must run at least **3x** faster than the 11.36 s the
  pre-fast-path engine recorded in ``BENCH_counts.json``.
* **Protocol sweep** — the 16-point protocol epsilon grid (rumor,
  ``n = 10^5``, ``R = 32``) must reach at least **3x** over the serial
  ``simulate()`` loop (it was 1.15x), using the batched draw mode.  The
  bitwise per-point mode is measured and recorded alongside it; the
  batched mode's distributional correctness is pinned by the
  ``pytest -m agreement`` suite (``test_batched_draw_agreement.py``).

All timings are best-of-3 (the deterministic cost of a computation is the
minimum over repeats; perturbations are additive noise) and recorded to
``BENCH_counts.json`` / ``BENCH_sweep.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_protocol_fastpath.py -s \
        -o python_files="bench_*.py"

Both floors are asserted directly with ``time.perf_counter`` so the file
also runs without the pytest-benchmark plugin.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from record import record_benchmark_results

from repro.core.protocol import CountsProtocol
from repro.experiments.workloads import rumor_instance
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, ScenarioGrid, simulate, simulate_sweep

REPEATS = 3

# The counts_protocol_million configuration of bench_counts_engine.py.
MILLION_NODES = 1_000_000
MILLION_TRIALS = 64
MILLION_OPINIONS = 3
MILLION_EPSILON = 0.3
#: What BENCH_counts.json recorded for this config before the fast path.
MILLION_BASELINE_SECONDS = 11.36
MILLION_MIN_SPEEDUP = 3.0

# The 16-point protocol epsilon sweep of bench_sweep.py.
SWEEP_POINTS = 16
SWEEP_NODES = 100_000
SWEEP_TRIALS = 32
SWEEP_MIN_SPEEDUP = 3.0

COUNTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_counts.json"
SWEEP_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"


def _best_of(workload, repeats: int = REPEATS):
    """(best seconds, last result) over ``repeats`` timed runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = workload()
        best = min(best, time.perf_counter() - started)
    return best, result


def _run_million_protocol():
    noise = uniform_noise_matrix(MILLION_OPINIONS, MILLION_EPSILON)
    initial_state = rumor_instance(MILLION_NODES, MILLION_OPINIONS, 1)
    return CountsProtocol(
        MILLION_NODES, noise, epsilon=MILLION_EPSILON, random_state=0
    ).run(initial_state, MILLION_TRIALS, target_opinion=1)


def _sweep_grid() -> ScenarioGrid:
    return ScenarioGrid(
        Scenario(
            workload="rumor",
            num_nodes=SWEEP_NODES,
            num_opinions=2,
            epsilon=0.2,
            engine="counts",
            num_trials=SWEEP_TRIALS,
            seed=11,
        ),
        {"epsilon": tuple(np.linspace(0.2, 0.45, SWEEP_POINTS))},
    )


def test_protocol_fastpath_floors(capsys):
    # Warm-up: build the vote/Poisson law caches once outside the timers.
    simulate(_sweep_grid().scenario(0))

    million_seconds, million = _best_of(_run_million_protocol)
    million_speedup = MILLION_BASELINE_SECONDS / max(million_seconds, 1e-9)

    serial_seconds, _ = _best_of(
        lambda: [simulate(s) for s in _sweep_grid().scenarios()]
    )
    per_point_seconds, _ = _best_of(
        lambda: simulate_sweep(_sweep_grid(), draw_mode="per-point")
    )
    batched_seconds, _ = _best_of(
        lambda: simulate_sweep(_sweep_grid(), draw_mode="batched")
    )
    per_point_speedup = serial_seconds / max(per_point_seconds, 1e-9)
    batched_speedup = serial_seconds / max(batched_seconds, 1e-9)

    with capsys.disabled():
        print(
            f"\n[bench_protocol_fastpath] million-node protocol "
            f"(n=10^6, R={MILLION_TRIALS}, k={MILLION_OPINIONS}): "
            f"{million_seconds:.2f}s, {million_speedup:.1f}x over the "
            f"{MILLION_BASELINE_SECONDS:.2f}s baseline (floor "
            f">= {MILLION_MIN_SPEEDUP:.0f}x); {SWEEP_POINTS}-point protocol "
            f"sweep (n=10^5, R={SWEEP_TRIALS}): serial {serial_seconds:.2f}s, "
            f"per-point {per_point_speedup:.1f}x, batched "
            f"{batched_speedup:.1f}x (floor >= {SWEEP_MIN_SPEEDUP:.0f}x "
            f"batched); best of {REPEATS}"
        )

    record_benchmark_results(
        COUNTS_PATH,
        {
            "counts_protocol_million_fastpath": {
                "num_nodes": MILLION_NODES,
                "num_trials": MILLION_TRIALS,
                "num_opinions": MILLION_OPINIONS,
                "epsilon": MILLION_EPSILON,
                "timing_repeats": REPEATS,
                "counts_seconds": round(million_seconds, 4),
                "baseline_seconds": MILLION_BASELINE_SECONDS,
                "speedup_vs_baseline": round(million_speedup, 2),
                "min_speedup_target": MILLION_MIN_SPEEDUP,
                "success_rate": round(float(million.success_rate), 4),
                "total_rounds": int(million.total_rounds),
            },
        },
    )
    record_benchmark_results(
        SWEEP_PATH,
        {
            "sweep_protocol_fastpath_16pt": {
                "workload": "rumor",
                "num_nodes": SWEEP_NODES,
                "num_opinions": 2,
                "num_trials": SWEEP_TRIALS,
                "points": SWEEP_POINTS,
                "timing_repeats": REPEATS,
                "serial_seconds": round(serial_seconds, 4),
                "per_point_sweep_seconds": round(per_point_seconds, 4),
                "per_point_speedup": round(per_point_speedup, 2),
                "batched_sweep_seconds": round(batched_seconds, 4),
                "batched_speedup": round(batched_speedup, 2),
                "min_speedup_target": SWEEP_MIN_SPEEDUP,
            },
        },
    )

    assert million_speedup >= MILLION_MIN_SPEEDUP, (
        f"counts protocol at n=10^6, R={MILLION_TRIALS} took "
        f"{million_seconds:.2f}s — only {million_speedup:.2f}x over the "
        f"recorded {MILLION_BASELINE_SECONDS:.2f}s baseline; the fast-path "
        f"floor is >= {MILLION_MIN_SPEEDUP:.0f}x"
    )
    assert batched_speedup >= SWEEP_MIN_SPEEDUP, (
        f"the {SWEEP_POINTS}-point protocol epsilon sweep (batched draws) is "
        f"only {batched_speedup:.2f}x faster than the serial simulate() loop "
        f"(serial {serial_seconds:.2f}s, batched {batched_seconds:.2f}s); "
        f"the floor is >= {SWEEP_MIN_SPEEDUP:.0f}x"
    )
