"""The benchmark workloads: inputs made from a seed, one call, output checks.

Every workload runs on the counts tier.  Each is picked so that one layer
dominates it and is small in another (see ``predictions.json``):

* ``protocol-k3`` -- the ROADMAP headline: ``maj()`` table and dense-law
  evaluation dominate a million-node plurality call;
* ``sweep-faults-store`` -- a faulted sweep (serial fallback for 2/3 of the
  points) that writes to and then resumes from a ``ResultStore``;
* ``dynamics-sweep`` -- the merged per-row round loop of three rules, with
  no protocol phases and no store;
* ``plurality-k5`` -- k = 5, whose final Stage-2 phase falls to the
  bounded-chunk per-voter sampler.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Sequence

import numpy as np

#: Result stores live here, inside the checkout the run started in.
STORE_ROOT = Path(".perfbench_tmp")


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed from the run seed and a call label (stable, no repeats)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``inputs(seed)`` -> a ``Scenario`` (one ``simulate``) or a grid.
    inputs: Callable[[int], Any]
    uses_store: bool = False
    #: The reference kernel (``worker.KERNELS``) its call timings are
    #: divided by: the one whose kind of work dominates the calls.
    reference: str = "mixed"


def _sim():
    return importlib.import_module("repro.sim")


def _protocol_k3(seed: int):
    return _sim().Scenario(
        workload="plurality", num_nodes=10**6, num_opinions=3, epsilon=0.3,
        bias=0.1, engine="counts", num_trials=64, seed=seed,
    )


def _plurality_k5(seed: int):
    return _sim().Scenario(
        workload="plurality", num_nodes=10**5, num_opinions=5, epsilon=0.3,
        engine="counts", num_trials=16, seed=seed,
    )


def _epsilons(low: float, high: float, count: int) -> tuple:
    return tuple(round(float(x), 6) for x in np.linspace(low, high, count))


def _dynamics_sweep(seed: int):
    sim = _sim()
    base = sim.Scenario(
        workload="dynamics", rule="voter", num_nodes=10**5, num_opinions=3,
        engine="counts", num_trials=4, max_rounds=100,
        record_trajectories=False, seed=seed,
    )
    return sim.ScenarioGrid(base, {
        "rule": ("voter", "3-majority", "undecided-state"),
        "epsilon": _epsilons(0.02, 0.3, 32),
    })


def _sweep_faults_store(seed: int):
    sim = _sim()
    FaultModel = importlib.import_module("repro.faults").FaultModel
    base = sim.Scenario(
        workload="rumor", num_nodes=10**4, num_opinions=2, epsilon=0.3,
        engine="counts", num_trials=8, seed=seed,
    )
    return sim.ScenarioGrid(base, {
        "faults": (
            None,
            FaultModel(kind="crash", fraction=0.05),
            FaultModel(kind="omission", fraction=0.05),
        ),
        "num_nodes": (10**4, 10**5, 10**6, 10**7),
        "epsilon": _epsilons(0.15, 0.45, 8),
    })


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("protocol-k3", _protocol_k3, reference="law"),
        Workload("sweep-faults-store", _sweep_faults_store, uses_store=True),
        Workload("dynamics-sweep", _dynamics_sweep),
        Workload("plurality-k5", _plurality_k5, reference="draws"),
    )
}


def scenarios_of(inputs) -> List[Any]:
    """The scenarios one call runs (a grid's points, or the one scenario)."""
    return inputs.scenarios() if hasattr(inputs, "scenarios") else [inputs]


def validate(inputs) -> None:
    for scenario in scenarios_of(inputs):
        scenario.validate()


def call(inputs, store=None) -> Any:
    """Run one workload call: a ``SweepResult`` or a ``SimulationResult``."""
    sim = _sim()
    if hasattr(inputs, "scenarios"):
        return sim.simulate_sweep(inputs, store=store)
    return sim.simulate(inputs)


def results_of(output) -> List[Any]:
    """The per-scenario results of one call's output."""
    return list(output) if hasattr(output, "from_cache") else [output]


def trial_rounds(results: Sequence[Any]) -> int:
    return int(sum(int(np.sum(result.rounds)) for result in results))


# ------------------------------------------------------------------ checks #

#: Dynamics rules under which every node always holds an opinion, so the
#: reported counts sum to exactly n.  Rumor, plurality and undecided-state
#: runs leave undecided nodes out of the counts.
EVERY_NODE_DECIDED = ("voter", "3-majority")


def check_results(scenarios: Sequence[Any], results: Sequence[Any]) -> List[str]:
    """Violations of the output invariants (empty when every check holds)."""
    schedule_cls = importlib.import_module(
        "repro.core.schedule"
    ).ProtocolSchedule
    problems = []
    if len(scenarios) != len(results):
        return [f"{len(results)} results for {len(scenarios)} scenarios"]
    for index, (scenario, result) in enumerate(zip(scenarios, results)):
        where = f"point {index}"
        state = (
            scenario.fault_split()[0]
            if scenario.faults is not None
            else scenario.initial_counts_state()
        )
        counts = np.asarray(result.final_opinion_counts)
        if result.num_nodes != state.num_nodes:
            problems.append(
                f"{where}: result tracks {result.num_nodes} nodes, "
                f"expected {state.num_nodes}"
            )
        if counts.shape != (scenario.num_trials, scenario.num_opinions):
            problems.append(f"{where}: counts shape {counts.shape}")
        else:
            totals = counts.sum(axis=1)
            exact = (
                scenario.workload == "dynamics"
                and scenario.rule in EVERY_NODE_DECIDED
                and int(np.sum(state.counts)) == state.num_nodes
            )
            if counts.min() < 0 or (
                (totals != state.num_nodes) if exact
                else (totals > state.num_nodes)
            ).any():
                problems.append(f"{where}: opinion counts do not conserve n")
        if (np.asarray(result.successes) & ~np.asarray(result.converged)).any():
            problems.append(f"{where}: a success that did not converge")
        biases = np.asarray(result.final_biases, dtype=float)
        if not ((biases >= -1.0) & (biases <= 1.0)).all():
            problems.append(f"{where}: final bias outside [-1, 1]")
        if scenario.workload in ("rumor", "plurality"):
            expected = schedule_cls.for_population(
                state.num_nodes,
                float(scenario.epsilon),
                initial_opinionated=max(1, int(np.sum(state.counts))),
                round_scale=scenario.round_scale,
            ).total_rounds
            if (np.asarray(result.rounds) != expected).any():
                problems.append(
                    f"{where}: rounds {sorted(set(result.rounds.tolist()))} "
                    f"!= schedule total {expected}"
                )
    return problems


_ARRAY_FIELDS = (
    "successes", "converged", "rounds", "final_biases",
    "final_opinion_counts", "consensus_opinions", "bias_after_stage1",
    "trajectories",
)


def same_results(left: Sequence[Any], right: Sequence[Any]) -> List[str]:
    """Points whose results differ bitwise (provenance excluded)."""
    if len(left) != len(right):
        return [f"{len(left)} results vs {len(right)}"]
    problems = []
    for index, (a, b) in enumerate(zip(left, right)):
        for name in _ARRAY_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            if x is None or y is None:
                same = x is None and y is None
            else:
                x, y = np.asarray(x), np.asarray(y)
                same = x.dtype == y.dtype and np.array_equal(
                    x, y, equal_nan=x.dtype.kind == "f"
                )
            if not same:
                problems.append(f"point {index}: {name} differs")
    return problems


def serial_point_check(inputs, results, seed: int) -> List[str]:
    """One sampled sweep point must equal its serial ``simulate()``."""
    index = derive_seed(seed, "serial-point") % inputs.size
    serial = _sim().simulate(inputs.scenario(index))
    return [
        f"sweep vs serial, {problem}"
        for problem in same_results([results[index]], [serial])
    ]



def result_store(root):
    orchestrator = importlib.import_module("repro.experiments.orchestrator")
    return orchestrator.ResultStore(root)


def blas_threads():
    """Threads the loaded OpenBLAS reports it uses, or ``None`` when no
    OpenBLAS with a thread query is loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps if "openblas" in line.lower()
            })
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(library, symbol, None)
            if query is not None:
                return int(query())
    return None


def host_info() -> dict:
    """The software and hardware a measurement ran on."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }
