"""Benchmark the E13 engine ablation: vectorized vs naive push delivery.

Benchmarks the two delivery-engine implementations head-to-head with
pytest-benchmark, so the vectorization speedup that E13 reports is measured
by the benchmark harness itself rather than by ad-hoc timers.
"""

from __future__ import annotations

import numpy as np

from repro.network.push_model import UniformPushModel
from repro.noise.families import uniform_noise_matrix

_NUM_NODES = 300
_NUM_ROUNDS = 10


def _make_workload():
    rng = np.random.default_rng(0)
    noise = uniform_noise_matrix(3, 0.3)
    engine = UniformPushModel(_NUM_NODES, noise, rng)
    senders = rng.integers(1, 4, size=_NUM_NODES)
    return engine, senders


def test_bench_push_engine_vectorized(benchmark):
    """Throughput of the vectorized push engine on a fixed phase workload."""
    engine, senders = _make_workload()
    result = benchmark(engine.run_phase, senders, _NUM_ROUNDS)
    assert result.total_messages() == _NUM_NODES * _NUM_ROUNDS


def test_bench_push_engine_naive(benchmark):
    """Throughput of the naive per-message reference engine (same workload)."""
    engine, senders = _make_workload()
    result = benchmark.pedantic(
        engine.run_phase_naive,
        args=(senders, _NUM_ROUNDS),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.total_messages() == _NUM_NODES * _NUM_ROUNDS
