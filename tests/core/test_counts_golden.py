"""Golden pins of ``simulate()``: the counts tier, plus the per-node tiers.

``counts_golden.json`` records per-seed ``simulate()`` outputs of the counts
tier (final counts, rounds, successes and a digest of every phase record's
opinion distributions) for a fixed set of protocol points, plus the
runner's counts Stage-1 and Stage-2 trajectories.  The protocol values were
captured before the counts protocol was collapsed onto the heterogeneous
batch, so these tests pin today's engine to the numbers of the previous
implementation rather than to itself.

The protocol points cover every vote-law path of the counts tier: rumor
``k = 2`` and plurality ``k = 3`` on the table path, whose final phases the
Chernoff certificate serves with the point law (bitwise the numbers the
exact laws gave), plurality ``k = 5`` on the dense path with a final phase
on the bounded-chunk sampler, and the crash, omission and liar
adversaries, the last two ending on the dense path.

The dynamics points (final counts, rounds, convergence, successes and a
digest of the bias history) were captured from the per-rule counts round
loop, before every counts-dynamics run went through the merged loop of
``run_heterogeneous_counts_dynamics``.  All but approximate consensus's
were regenerated when rows began to draw one group per reaction law
(draw-order version 1): a voter or majority row with no undecided node
draws one multinomial, an undecided-state row one multinomial plus a
binomial per opinion group.  They cover all six rules at
``k = 3``, voter / 3-majority / median rule at ``k = 2`` and ``k = 5``, and
approximate consensus at ``n = 7``, where its midpoint law stays random for
the whole phase budget, each with and without early stopping; plus one
direct ``EnsembleCountsDynamics.run`` per rule from distinct per-trial rows
with an explicit per-trial seed list.

The per-node points pin the sequential and batched tiers of ``simulate()``
(successes, rounds, final counts, final biases, end-of-Stage-1 biases and a
digest of the trajectories) for rumor ``k = 2``, plurality ``k = 3`` from a
partial biased support, all six dynamics rules (five at ``n = 200``,
``k = 3``; approximate consensus at its random ``n = 7`` point) and rumor
``k = 2`` under crash, omission and liar faults; the batched tier also runs
rumor ``k = 2`` delivered by processes B and P.  The rumor, plurality and
dynamics points were captured while the experiments' former per-trial
runner helpers still existed and matched these runs bitwise (approximate
consensus aside: the dynamics helper could not set its precision target),
so they keep pinning these tiers to an independent reference now that the
helpers are gone.  The faulted and process points were captured while the
per-node engines still carried a shared-stream mode next to their
per-trial streams.

The one-trial points repeat the protocol and dynamics points with
``num_trials = 1``, and the per-trial-list points run a plurality ``k = 3``
point, plain and under omission faults, from an explicit per-trial seed
list.  A counts point draws one stream per point from a single seed
(draw-order version 2) but the one-trial and per-trial-list runs draw what
they drew before it: they were captured at version 1 and must not move.

The fixture records :data:`repro.sim.facade.DRAW_ORDER_VERSION`, the
version the stores key on.  Regenerate (only when a change to the draw
order or to a law value is intended and has passed ``pytest -m
agreement``) with::

    PYTHONPATH=src python tests/core/test_counts_golden.py --write

``--write`` refuses to rewrite an entry that changed unless the constant
moved since the fixture was written, so no change that moves a seeded
result can leave the stores serving results from before it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.protocol import run_heterogeneous_counts_protocol
from repro.core.state import EnsembleCountsState, PopulationState
from repro.experiments.runner import (
    stage1_trial_trajectories,
    stage2_trial_trajectories,
)
from repro.faults import FaultModel
from repro.noise.families import uniform_noise_matrix
from repro.sim import Scenario, simulate
from repro.sim.engines import build_dynamics
from repro.sim.facade import DRAW_ORDER_VERSION, _counts_protocol_task
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


#: label -> dynamics Scenario keyword arguments; each runs with early
#: stopping on and off (the ``-stop`` / ``-nostop`` suffix of its key).
DYNAMICS_BASE = dict(workload="dynamics", num_nodes=200, epsilon=0.6,
                     bias=0.3, max_rounds=40)
DYNAMICS_POINTS = {
    **{
        f"{rule}-k3": dict(DYNAMICS_BASE, rule=rule, num_opinions=3)
        for rule in ("voter", "3-majority", "undecided-state", "median-rule",
                     "approximate-consensus")
    },
    "h-majority-h5-k3": dict(DYNAMICS_BASE, rule="h-majority",
                             sample_size=5, num_opinions=3),
    **{
        f"{rule}-k{k}": dict(DYNAMICS_BASE, rule=rule, num_opinions=k,
                             epsilon=epsilon)
        for k, epsilon in ((2, 0.45), (5, 0.75))
        for rule in ("voter", "3-majority", "median-rule")
    },
    "approximate-consensus-n7-k4": dict(
        workload="dynamics", rule="approximate-consensus", num_nodes=7,
        num_opinions=4, epsilon=0.3, bias=0.1, max_rounds=8,
    ),
}

#: The protocol points run from an explicit per-trial seed list.
PER_TRIAL_LIST_POINTS = ("plurality-k3-n2000", "omission-plurality-k3")
PER_TRIAL_SEEDS = [21, 22, 23, 24]

#: Distinct per-trial starting rows (``n = 200``, ``k = 3``): a biased
#: row, a near-tie, a row already at consensus and a mostly undecided one.
ENSEMBLE_ROWS = [[120, 50, 30], [60, 70, 40], [200, 0, 0], [10, 10, 10]]
ENSEMBLE_SEEDS = [11, 12, 13, 14]
ENSEMBLE_RULES = {
    "voter": None,
    "3-majority": None,
    "h-majority": 5,
    "undecided-state": None,
    "median-rule": None,
    "approximate-consensus": None,
}


#: label -> Scenario keyword arguments run on every per-node tier.
PER_NODE_TIERS = ("sequential", "batched")
PER_NODE_TRIALS = 3
PER_NODE_POINTS = {
    "rumor-k2": dict(workload="rumor", num_nodes=400, num_opinions=2,
                     epsilon=0.3),
    "plurality-k3-support": dict(workload="plurality", num_nodes=400,
                                 num_opinions=3, epsilon=0.3,
                                 support_size=200, bias=0.3),
    **{
        label: DYNAMICS_POINTS[label]
        for label in ("voter-k3", "3-majority-k3", "undecided-state-k3",
                      "median-rule-k3", "h-majority-h5-k3",
                      "approximate-consensus-n7-k4")
    },
    **{
        f"{kind}-rumor-k2": dict(workload="rumor", num_nodes=400,
                                 num_opinions=2, epsilon=0.3, faults=faults)
        for kind, faults in (
            ("crash", FaultModel(kind="crash", fraction=0.05,
                                 crash_round=40)),
            ("omission", FaultModel(kind="omission", fraction=0.1)),
            ("liar", FaultModel(kind="liar", fraction=0.1)),
        )
    },
}

#: label -> Scenario keyword arguments run on the batched tier only: the
#: delivery processes B and P, whose batched phases share the push
#: process's per-trial stream plumbing.
BATCHED_POINTS = {
    f"{process.replace('_', '-')}-rumor-k2": dict(
        workload="rumor", num_nodes=400, num_opinions=2, epsilon=0.3,
        process=process,
    )
    for process in ("balls_bins", "poisson")
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


def simulate_record(label: str, seed: int, num_trials: int = NUM_TRIALS) -> dict:
    scenario = Scenario(
        engine="counts", num_trials=num_trials, seed=seed, **POINTS[label]
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


def per_trial_list_record(label: str) -> dict:
    """``simulate``'s counts task of ``label``, run from the explicit
    per-trial seed list :data:`PER_TRIAL_SEEDS`."""
    scenario = Scenario(
        engine="counts", num_trials=len(PER_TRIAL_SEEDS), **POINTS[label]
    )
    task = _counts_protocol_task(scenario, scenario.build_noise())
    task.random_state = list(PER_TRIAL_SEEDS)
    (result,) = run_heterogeneous_counts_protocol([task])
    records = list(result.stage1_records) + list(result.stage2_records)
    return {
        "final_counts": result.final_states.counts.tolist(),
        "successes": result.successes.tolist(),
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


def dynamics_record(
    label: str, stop: bool, seed: int, num_trials: int = NUM_TRIALS
) -> dict:
    result = simulate(Scenario(
        engine="counts", num_trials=num_trials, seed=seed,
        stop_at_consensus=stop, record_trajectories=True,
        **DYNAMICS_POINTS[label],
    ))
    return {
        "final_counts": np.asarray(result.final_opinion_counts).tolist(),
        "rounds": np.asarray(result.rounds).tolist(),
        "converged": np.asarray(result.converged).tolist(),
        "successes": np.asarray(result.successes).tolist(),
        "bias_history_sha256": _digest([result.trajectories]),
    }


def ensemble_rows_record(rule: str) -> dict:
    dynamic = build_dynamics(
        "counts", rule, 200, uniform_noise_matrix(3, 0.6), ENSEMBLE_SEEDS,
        sample_size=ENSEMBLE_RULES[rule],
    )
    result = dynamic.run(
        EnsembleCountsState(np.array(ENSEMBLE_ROWS), 200), 30,
        target_opinion=1,
    )
    return {
        "final_counts": result.final_states.counts.tolist(),
        "rounds": result.rounds_executed.tolist(),
        "converged": result.converged.tolist(),
        "successes": result.successes.tolist(),
        "bias_history_sha256": _digest([result.bias_history]),
    }


def per_node_record(label: str, tier: str, seed: int) -> dict:
    points = BATCHED_POINTS if label in BATCHED_POINTS else PER_NODE_POINTS
    result = simulate(Scenario(
        engine=tier, num_trials=PER_NODE_TRIALS, seed=seed, **points[label],
    ))
    stage1 = result.bias_after_stage1
    return {
        "successes": np.asarray(result.successes).tolist(),
        "rounds": np.asarray(result.rounds).tolist(),
        "final_counts": np.asarray(result.final_opinion_counts).tolist(),
        "final_biases": np.asarray(result.final_biases).tolist(),
        "bias_after_stage1": None if stage1 is None else stage1.tolist(),
        "trajectories_sha256": (
            None if result.trajectories is None
            else _digest([result.trajectories])
        ),
    }


def _dynamics_keys():
    return [
        (label, stop, f"{label}-{'stop' if stop else 'nostop'}")
        for label in DYNAMICS_POINTS
        for stop in (True, False)
    ]


def compute_golden() -> dict:
    return {
        "points": {
            label: {str(seed): simulate_record(label, seed) for seed in SEEDS}
            for label in POINTS
        },
        "trajectories": {str(seed): trajectory_records(seed) for seed in SEEDS},
        "dynamics": {
            key: {
                str(seed): dynamics_record(label, stop, seed)
                for seed in SEEDS
            }
            for label, stop, key in _dynamics_keys()
        },
        "dynamics_ensemble_rows": {
            rule: ensemble_rows_record(rule) for rule in ENSEMBLE_RULES
        },
        "points_one_trial": {
            label: {
                str(seed): simulate_record(label, seed, 1) for seed in SEEDS
            }
            for label in POINTS
        },
        "dynamics_one_trial": {
            key: {
                str(seed): dynamics_record(label, stop, seed, 1)
                for seed in SEEDS
            }
            for label, stop, key in _dynamics_keys()
        },
        "points_per_trial_list": {
            label: per_trial_list_record(label)
            for label in PER_TRIAL_LIST_POINTS
        },
        "per_node": {
            f"{label}-{tier}": {
                str(seed): per_node_record(label, tier, seed)
                for seed in SEEDS
            }
            for label in PER_NODE_POINTS
            for tier in PER_NODE_TIERS
        },
        "per_node_batched": {
            label: {
                str(seed): per_node_record(label, "batched", seed)
                for seed in SEEDS
            }
            for label in BATCHED_POINTS
        },
    }


def changed_entries(old: dict, new: dict) -> list:
    """``section/key`` of every entry of ``old`` that ``new`` changes."""
    return [
        f"{section}/{key}"
        for section, entries in new.items()
        for key, value in entries.items()
        if key in old.get(section, {}) and old[section][key] != value
    ]


def write_golden() -> None:
    """Rewrite the fixture, stamped with the current draw-order version.

    Exits without writing when an entry changed but the fixture already
    records :data:`DRAW_ORDER_VERSION` (a fixture without the key predates
    it: version 0).  New entries need no bump.
    """
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = compute_golden()
    changed = changed_entries(old, new)
    if changed and old.get("draw_order_version", 0) == DRAW_ORDER_VERSION:
        sys.exit(
            f"{len(changed)} golden entries changed (first: {changed[0]}) "
            f"but DRAW_ORDER_VERSION is still {DRAW_ORDER_VERSION}; bump it "
            "in src/repro/sim/facade.py so stored results miss, then rerun"
        )
    GOLDEN_PATH.write_text(
        json.dumps({"draw_order_version": DRAW_ORDER_VERSION, **new}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(changed)} entries changed)")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_records_the_draw_order_version(golden):
    assert golden["draw_order_version"] == DRAW_ORDER_VERSION


def test_write_refuses_changed_entries_unless_the_version_moved(
    tmp_path, monkeypatch
):
    module = sys.modules[__name__]
    path = tmp_path / "golden.json"
    fresh = {"points": {"a": {"0": [1]}, "b": {"0": [2]}}}
    monkeypatch.setattr(module, "GOLDEN_PATH", path)
    monkeypatch.setattr(module, "compute_golden", lambda: fresh)
    stale = {"draw_order_version": DRAW_ORDER_VERSION,
             "points": {"a": {"0": [0]}}}
    path.write_text(json.dumps(stale))
    with pytest.raises(SystemExit, match="1 golden entries changed"):
        write_golden()
    assert json.loads(path.read_text()) == stale
    # An added entry needs no bump; an older version lets the change in.
    for recorded in (DRAW_ORDER_VERSION, DRAW_ORDER_VERSION - 1):
        path.write_text(json.dumps({
            "draw_order_version": recorded,
            "points": {"a": {"0": [1 if recorded == DRAW_ORDER_VERSION else 0]}},
        }))
        write_golden()
        assert json.loads(path.read_text()) == {
            "draw_order_version": DRAW_ORDER_VERSION, **fresh
        }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(POINTS))
def test_simulate_counts_matches_golden(golden, label, seed):
    assert simulate_record(label, seed) == golden["points"][label][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_runner_counts_trajectories_match_golden(golden, seed):
    assert trajectory_records(seed) == golden["trajectories"][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "label,stop,key", _dynamics_keys(), ids=[key for *_, key in _dynamics_keys()]
)
def test_simulate_counts_dynamics_matches_golden(golden, label, stop, key,
                                                 seed):
    assert (
        dynamics_record(label, stop, seed) == golden["dynamics"][key][str(seed)]
    )


@pytest.mark.parametrize("rule", list(ENSEMBLE_RULES))
def test_counts_dynamics_run_from_ensemble_rows_matches_golden(golden, rule):
    assert ensemble_rows_record(rule) == golden["dynamics_ensemble_rows"][rule]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(POINTS))
def test_one_trial_counts_protocol_matches_golden(golden, label, seed):
    assert (
        simulate_record(label, seed, 1)
        == golden["points_one_trial"][label][str(seed)]
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "label,stop,key", _dynamics_keys(), ids=[key for *_, key in _dynamics_keys()]
)
def test_one_trial_counts_dynamics_matches_golden(golden, label, stop, key,
                                                  seed):
    assert (
        dynamics_record(label, stop, seed, 1)
        == golden["dynamics_one_trial"][key][str(seed)]
    )


@pytest.mark.parametrize("label", PER_TRIAL_LIST_POINTS)
def test_counts_protocol_from_a_per_trial_list_matches_golden(golden, label):
    assert (
        per_trial_list_record(label)
        == golden["points_per_trial_list"][label]
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tier", PER_NODE_TIERS)
@pytest.mark.parametrize("label", list(PER_NODE_POINTS))
def test_simulate_per_node_tiers_match_golden(golden, label, tier, seed):
    assert (
        per_node_record(label, tier, seed)
        == golden["per_node"][f"{label}-{tier}"][str(seed)]
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(BATCHED_POINTS))
def test_simulate_batched_processes_match_golden(golden, label, seed):
    assert (
        per_node_record(label, "batched", seed)
        == golden["per_node_batched"][label][str(seed)]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write_golden()
