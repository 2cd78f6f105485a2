"""Tracing test: protocol counts round-loop allocations are per-phase.

The fast-path contract for the counts-tier protocol: everything constant
within a phase (vote laws, Poisson tables, noise structure, work buffers)
is built once per phase, so the number of *allocator* calls
(``np.zeros`` / ``np.empty`` / ...) made while a protocol ensemble runs
must depend on the phase structure only — never on how many rounds each
phase executes.  Raw RNG draws are excluded: each round necessarily draws
fresh randomness, and the arrays those draws return are the per-round
cost floor, not allocator churn.

The check runs the same protocol at ``round_scale=1`` and
``round_scale=3`` (three times the Stage-2 rounds, identical phase
schedule) and asserts the hundreds of extra rounds add essentially no
allocator calls.  Exact equality is deliberately not asserted: early
retirement of converged trials makes a handful of value-dependent
allocations legitimate — but a regression that re-derives a law or
reallocates a buffer inside the round loop adds at least one call *per
added round* and fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import CountsProtocol
from repro.core.state import CountsState
from repro.noise.families import uniform_noise_matrix

TRACED_ALLOCATORS = ("zeros", "empty", "ones", "full", "arange", "tile")

NUM_NODES = 50_000
NUM_TRIALS = 4
NUM_OPINIONS = 3
EPSILON = 0.3


class _CallCounter:
    def __init__(self):
        self.calls = 0


@pytest.fixture
def allocation_counter(monkeypatch):
    """Count every call to numpy's allocation entry points."""
    counter = _CallCounter()
    for name in TRACED_ALLOCATORS:
        original = getattr(np, name)

        def traced(*args, _original=original, **kwargs):
            counter.calls += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, traced)
    return counter


def _run_protocol(round_scale: float):
    noise = uniform_noise_matrix(NUM_OPINIONS, EPSILON)
    initial = CountsState.single_source(NUM_NODES, NUM_OPINIONS, 1)
    protocol = CountsProtocol(
        NUM_NODES, noise, epsilon=EPSILON, random_state=7,
        round_scale=round_scale,
    )
    return protocol.run(initial, NUM_TRIALS, target_opinion=1)


def test_allocations_scale_with_phases_not_rounds(allocation_counter):
    # Warm-up outside the counter so LRU-cached law construction (vote
    # tables, Poisson tails) does not differ between the measured runs.
    _run_protocol(1.0)
    _run_protocol(3.0)

    allocation_counter.calls = 0
    base = _run_protocol(1.0)
    base_allocations = allocation_counter.calls

    allocation_counter.calls = 0
    scaled = _run_protocol(3.0)
    scaled_allocations = allocation_counter.calls

    assert base_allocations > 0, "tracing recorded no allocations at all"
    # Same phase schedule, ~3x the Stage-2 rounds: the extra rounds must
    # contribute (essentially) zero allocator calls.  One call per added
    # round would add `extra_rounds` — two orders of magnitude over the
    # slack left for value-dependent early-retirement bookkeeping.
    extra_rounds = scaled.total_rounds - base.total_rounds
    assert extra_rounds > 100, (
        f"round_scale=3 only added {extra_rounds} rounds; the probe has "
        "no discriminating power"
    )
    extra_allocations = scaled_allocations - base_allocations
    assert extra_allocations < 0.1 * extra_rounds, (
        f"protocol counts run allocated {scaled_allocations} arrays at "
        f"round_scale=3 vs {base_allocations} at round_scale=1 — "
        f"{extra_allocations} extra allocator calls for {extra_rounds} "
        "extra rounds; something allocates per round, not per phase"
    )


def test_allocations_are_bounded_per_phase(allocation_counter):
    """A generous absolute ceiling so per-phase cost cannot silently
    balloon either (each phase evaluates its laws once over (R, k) buffers)."""
    _run_protocol(1.0)  # warm caches
    allocation_counter.calls = 0
    result = _run_protocol(1.0)
    num_phases = len(result.stage1_records) + len(result.stage2_records)
    ceiling = 64 * num_phases + 64
    assert allocation_counter.calls <= ceiling, (
        f"{allocation_counter.calls} allocator calls across {num_phases} "
        f"phases (ceiling {ceiling}) — per-phase setup cost has ballooned"
    )
