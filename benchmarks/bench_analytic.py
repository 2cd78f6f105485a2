"""Benchmark: the analytic (sampling-free) tier.

The analytic tier's costs are structural, not statistical: the exact
Markov tier pays ``O(S^2)`` to build the one-round kernel over the
``S = C(n + k, k)`` count states and ``O(S^2)`` per round to evolve the
distribution.  This bench pins those costs at the tier's operating points
so regressions in the kernel convolution show up as data:

* exact kernel construction and distribution evolution at ``n = 40``,
  ``k = 2`` (``S = 861``, near the default state budget) for 3-majority
  dynamics under uniform noise;
* an exact two-stage protocol run at ``n = 14`` (the agreement suite's
  protocol operating point).

All measurements are recorded to ``BENCH_analytic.json`` in one
schema-versioned document via :func:`record.record_benchmark_results`,
and CI prints that file on every run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analytic.py -s \
        -o python_files="bench_*.py"

``test_analytic_tier_timings`` asserts the targets directly with
``time.perf_counter`` so it also runs without the pytest-benchmark
plugin.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from record import record_benchmark_results

from repro.core.analytic import AnalyticProtocol
from repro.dynamics.analytic import _KERNEL_CACHE, ExactDynamicsChain
from repro.noise.families import uniform_noise_matrix

RULE = "3-majority"
EPSILON = 0.4
MAX_ROUNDS = 80

EXACT_NODES = 40  # C(42, 2) = 861 states: near the default state budget
EXACT_INITIAL = np.array([22, 15])  # 3 undecided nodes
PROTOCOL_NODES = 14
PROTOCOL_INITIAL = np.array([6, 5])
PROTOCOL_EPSILON = 0.3
RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_analytic.json"


def build_exact_chain():
    noise = uniform_noise_matrix(2, EPSILON)
    return ExactDynamicsChain(RULE, EXACT_NODES, noise)


def run_exact_protocol():
    noise = uniform_noise_matrix(2, PROTOCOL_EPSILON)
    protocol = AnalyticProtocol(
        PROTOCOL_NODES, noise, epsilon=PROTOCOL_EPSILON
    )
    return protocol.run(PROTOCOL_INITIAL, target_opinion=1)


def test_analytic_tier_timings():
    """Kernel construction, exact evolution and the exact protocol stay
    within their structural cost envelopes; the measurements land together
    in BENCH_analytic.json."""
    _KERNEL_CACHE.clear()  # time a cold kernel build, not a cache hit

    started = time.perf_counter()
    chain = build_exact_chain()
    chain.transition_kernel()  # built lazily; force the S x S convolution
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    exact = chain.run(EXACT_INITIAL, MAX_ROUNDS, target_opinion=1)
    evolve_seconds = time.perf_counter() - started

    started = time.perf_counter()
    protocol = run_exact_protocol()
    protocol_seconds = time.perf_counter() - started

    num_states = len(chain.states)
    entries = record_benchmark_results(
        RESULTS_PATH,
        {
            "exact_dynamics_3majority": {
                "num_nodes": EXACT_NODES,
                "num_opinions": 2,
                "epsilon": EPSILON,
                "num_states": num_states,
                "max_rounds": MAX_ROUNDS,
                "kernel_build_seconds": round(build_seconds, 4),
                "evolve_seconds": round(evolve_seconds, 4),
                "rounds_evolved": len(exact.bias_trajectory),
                "expected_rounds": round(exact.expected_rounds, 2),
                "success_probability": exact.success_probability,
            },
            "exact_protocol": {
                "num_nodes": PROTOCOL_NODES,
                "num_opinions": 2,
                "epsilon": PROTOCOL_EPSILON,
                "seconds": round(protocol_seconds, 4),
                "success_probability": protocol.success_probability,
            },
        },
    )
    print(
        f"\nexact n={EXACT_NODES} (S={num_states}): kernel build "
        f"{build_seconds:.3f} s, {len(exact.bias_trajectory)}-round evolution "
        f"{evolve_seconds:.3f} s, P(success)={exact.success_probability:.4f}"
        f"\nexact protocol n={PROTOCOL_NODES}: {protocol_seconds:.3f} s, "
        f"P(success)={protocol.success_probability:.4f} "
        f"(recorded to {RESULTS_PATH.name})"
    )
    assert set(entries) == {"exact_dynamics_3majority", "exact_protocol"}
    assert 0.0 <= exact.success_probability <= 1.0
    # Structural envelopes, generous enough for slow CI runners: the
    # S = 861 kernel must build and evolve in seconds.
    assert build_seconds < 60.0, (
        f"exact kernel build took {build_seconds:.1f} s at S={num_states} "
        "(target: seconds, < 60 s)"
    )
    assert evolve_seconds < 30.0, (
        f"exact evolution took {evolve_seconds:.1f} s (target: < 30 s)"
    )
