"""Tracing test: the counts engines never allocate an ``n``-sized array.

The counts tier's contract is that per-trial memory is ``O(k)`` (bounded
chunks for the Stage-2 fallback sampler), independent of the population
size.  Two complementary checks enforce it:

* **shape tracing** — every numpy allocation entry point the engines use
  (``np.zeros`` / ``np.empty`` / ``np.ones`` / ``np.full`` /
  ``np.arange`` / ``np.tile``) and every random draw (via a recording
  ``Generator`` subclass) is intercepted while a counts dynamics run and a
  full counts protocol run execute at ``n = 5,000,000``; every recorded
  axis must stay below ``MAX_TRACED_AXIS`` (far below ``n``, with head
  room for the documented ``VOTE_CHUNK = 32768`` Stage-2 chunks and the
  ``O(L)`` Poisson-tail work arrays);
* **physical impossibility** — a dynamics run and a protocol run at
  ``n = 10^12``, where any array with an ``n``-sized axis would need
  ~8 TB: merely completing proves no such allocation happened.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import CountsProtocol
from repro.core.state import CountsState
from repro.network.balls_bins import HeterogeneousCountsDeliveryModel
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate
from repro.sim.engines import build_dynamics

#: Any traced axis at or above this is treated as an ``n``-sized leak.
#: It must stay comfortably above VOTE_CHUNK (32768) and the O(L) arrays
#: of the Poisson tail computation, and far below the test's n.
MAX_TRACED_AXIS = 100_000

TRACED_ALLOCATORS = ("zeros", "empty", "ones", "full", "arange", "tile")


class _ShapeLog:
    def __init__(self):
        self.shapes = []

    def record(self, value) -> None:
        shape = np.shape(value)
        if shape:
            self.shapes.append(shape)

    def max_axis(self) -> int:
        return max(
            (axis for shape in self.shapes for axis in shape), default=0
        )


class _RecordingGenerator(np.random.Generator):
    """A ``numpy.random.Generator`` that logs the shape of every draw.

    Subclassing (rather than wrapping) keeps ``isinstance`` checks in
    ``as_generator`` satisfied, so the engines consume it like any other
    per-trial randomness source.
    """

    def __init__(self, seed, log: _ShapeLog):
        super().__init__(np.random.PCG64(seed))
        self._log = log

    def _recorded(self, draw):
        self._log.record(draw)
        return draw

    def multinomial(self, *args, **kwargs):
        return self._recorded(super().multinomial(*args, **kwargs))

    def binomial(self, *args, **kwargs):
        return self._recorded(super().binomial(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._recorded(super().random(*args, **kwargs))

    def poisson(self, *args, **kwargs):
        return self._recorded(super().poisson(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._recorded(super().integers(*args, **kwargs))

    def choice(self, *args, **kwargs):
        return self._recorded(super().choice(*args, **kwargs))

    def hypergeometric(self, *args, **kwargs):
        return self._recorded(super().hypergeometric(*args, **kwargs))


@pytest.fixture
def shape_log(monkeypatch):
    """Intercept numpy's allocation entry points into a shape log."""
    log = _ShapeLog()
    for name in TRACED_ALLOCATORS:
        original = getattr(np, name)

        def traced(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            log.record(result)
            return result

        monkeypatch.setattr(np, name, traced)
    return log


NUM_NODES = 5_000_000
NUM_TRIALS = 4


def test_counts_dynamics_allocate_no_n_sized_axis(shape_log):
    noise = uniform_noise_matrix(3, 0.3)
    initial = CountsState(
        np.array([3_000_000, 1_200_000, 600_000]), NUM_NODES
    )
    for rule, sample_size in [
        ("voter", None),
        ("3-majority", None),
        ("h-majority", 5),
        ("undecided-state", None),
        ("median-rule", None),
    ]:
        generators = [
            _RecordingGenerator(seed, shape_log)
            for seed in range(NUM_TRIALS)
        ]
        dynamic = build_dynamics(
            "counts", rule, NUM_NODES, noise, generators, sample_size=sample_size
        )
        result = dynamic.run(
            initial, 5, NUM_TRIALS, target_opinion=1,
            stop_at_consensus=False,
        )
        assert result.num_trials == NUM_TRIALS
    assert shape_log.shapes, "tracing recorded no allocations at all"
    assert shape_log.max_axis() < MAX_TRACED_AXIS, (
        f"counts dynamics allocated an array with a {shape_log.max_axis()}"
        f"-sized axis at n = {NUM_NODES:,}"
    )


def test_counts_protocol_allocates_no_n_sized_axis(shape_log):
    """A full two-stage protocol run, including the final long Stage-2
    phase (L = 743): the Chernoff certificate serves it with the point law,
    and uncertified it would take the dense law, not bounded chunks."""
    noise = uniform_noise_matrix(3, 0.3)
    initial = CountsState.single_source(NUM_NODES, 3, 1)
    generators = [
        _RecordingGenerator(100 + seed, shape_log) for seed in range(2)
    ]
    result = CountsProtocol(
        NUM_NODES, noise, epsilon=0.3, random_state=generators
    ).run(initial, 2, target_opinion=1)
    assert result.success_rate == 1.0
    assert shape_log.shapes, "tracing recorded no allocations at all"
    assert shape_log.max_axis() < MAX_TRACED_AXIS, (
        f"counts protocol allocated an array with a {shape_log.max_axis()}"
        f"-sized axis at n = {NUM_NODES:,}"
    )


def test_counts_dynamics_run_at_a_trillion_nodes():
    """n = 10^12: an (R, n) or (n,) allocation would need terabytes, so
    completing at all certifies the engine's n-independence."""
    noise = uniform_noise_matrix(3, 0.3)
    initial = CountsState(
        np.array([500 * 10**9, 300 * 10**9, 200 * 10**9]), 10**12
    )
    result = build_dynamics("counts", "3-majority", 10**12, noise, 0).run(
        initial, 10, 4, target_opinion=1, stop_at_consensus=False
    )
    assert result.num_trials == 4
    assert np.all(
        result.final_states.counts.sum(axis=1) == 10**12
    )
    # The channel noise pulls the bias toward its small fixed point, but
    # the initial plurality must still lead after 10 rounds.
    assert np.all(result.final_biases > 0)


def test_counts_protocol_runs_at_a_trillion_nodes(monkeypatch):
    """The protocol twin: k = 5 plurality at n = 10^12.  Its final Stage-2
    phase (L = 1329) is past both law budgets; only the Chernoff
    certificate keeps it off the per-voter sampler, which would draw 10^12
    sample compositions per trial."""

    def refuse(*args, **kwargs):
        raise AssertionError("the per-voter chunk sampler ran")

    monkeypatch.setattr(
        HeterogeneousCountsDeliveryModel, "_sample_chunk_votes", refuse
    )
    result = simulate(
        Scenario(
            workload="plurality", num_nodes=10**12, num_opinions=5,
            engine="counts", num_trials=4, seed=0,
        )
    )
    assert result.provenance["stage2_vote_paths"][-1] == "point"
    assert np.all(result.final_opinion_counts.sum(axis=1) <= 10**12)
    assert result.success_rate == 1.0
