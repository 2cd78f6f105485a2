"""What importing repro needs, and what a simulation run imports.

scipy serves only the Section-4 linear-program check and the analysis
helpers, and networkx only the topology extension; both are imported inside
the functions that use them, so a simulation, sweep or CLI run never loads
them (about 0.75 s of a cold process).  Likewise the CLI imports the
experiment package only in the commands that run experiments; a
store-backed sweep takes its ``ResultStore`` from
``repro.utils.artifacts``.  Within ``repro``, ``import repro.sim`` loads
the modules a counts run executes and nothing else: the other tiers and
helpers (``DEFERRED``) load on first use, and a counts run imports no
module at all.  The declared-dependency check keeps ``pyproject.toml`` in
step with every third-party import, module-level or function-level.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules no counts run executes: ``import repro.sim`` must not load them.
DEFERRED = (
    "repro.core.analytic",
    "repro.dynamics.analytic",
    "repro.analytic.simplex",
    "repro.analytic.verify",
    "repro.network.delivery",
    "repro.network.mailbox",
    "repro.network.push_model",
    "repro.network.poisson_model",
    "repro.network.topology",
    "repro.noise.estimation",
    "repro.noise.majority_preserving",
    "repro.analysis.amplification",
    "repro.analysis.concentration",
    "repro.analysis.convergence",
    "repro.analysis.poisson",
    "repro.analysis.theory",
    "repro.utils.logging",
    "repro.utils.multiset",
    "repro.utils.tables",
    "repro.core.memory",
    "repro.core.rumor",
    "repro.core.sampling",
    "repro.faults.delivery",
)

#: The packages whose ``__all__`` names load on first use.
LAZY_PACKAGES = (
    "repro", "repro.core", "repro.network", "repro.noise", "repro.analysis",
    "repro.utils", "repro.faults", "repro.analytic", "repro.sim",
)

# Runs in a fresh interpreter (the deferred module names and the lazy
# packages come as the first two arguments): import repro.sim, build and
# validate a counts protocol scenario, a faulted counts grid and a counts
# dynamics grid, run them, and check what got loaded on the way.
_COUNTS_SCRIPT = textwrap.dedent(
    """
    import importlib, sys

    deferred, packages = sys.argv[1].split(","), sys.argv[2].split(",")

    def repro_modules():
        return {name for name in sys.modules if name.split(".")[0] == "repro"}

    import repro.sim

    # Names of loaded modules are plain package attributes, as eager
    # imports left them, so namespace patchers (tracers, mocks) find them.
    assert {"Scenario", "simulate"} <= set(vars(repro.sim))
    assert "repro.sim.sweep" not in sys.modules
    protocol = repro.sim.Scenario(
        workload="plurality", num_nodes=10**6, num_opinions=3, bias=0.1,
        engine="counts", num_trials=4, seed=0,
    )
    protocol.validate()
    FaultModel = importlib.import_module("repro.faults").FaultModel
    faulted = repro.sim.ScenarioGrid(
        repro.sim.Scenario(
            workload="rumor", num_nodes=10**4, num_opinions=2,
            engine="counts", num_trials=4, seed=0,
        ),
        {
            "faults": (
                None,
                FaultModel(kind="crash", fraction=0.05),
                FaultModel(kind="omission", fraction=0.05),
            ),
            "epsilon": (0.2, 0.3),
        },
    )
    assert "repro.sim.sweep" in sys.modules
    assert "simulate_sweep" in vars(repro.sim)
    dynamics = repro.sim.ScenarioGrid(
        repro.sim.Scenario(
            workload="dynamics", rule="voter", num_nodes=10**5,
            num_opinions=3, engine="counts", num_trials=4, max_rounds=50,
            seed=0,
        ),
        {"rule": ("voter", "3-majority", "undecided-state"),
         "epsilon": (0.1, 0.2)},
    )
    for grid in (faulted, dynamics):
        for scenario in grid.scenarios():
            scenario.validate()

    before = repro_modules()
    repro.sim.simulate(protocol)
    repro.sim.simulate_sweep(faulted)
    repro.sim.simulate_sweep(dynamics)
    added = sorted(repro_modules() - before)
    assert not added, f"a counts run imported {added}"
    loaded = sorted(set(deferred) & repro_modules())
    assert not loaded, f"deferred modules loaded: {loaded}"

    for name in packages:
        package = importlib.import_module(name)
        missing = sorted(set(package.__all__) - set(dir(package)))
        assert not missing, f"{name}: dir() lacks {missing}"
        for export in package.__all__:
            getattr(package, export)
    """
)


def test_a_counts_run_loads_only_what_it_executes():
    completed = subprocess.run(
        [
            sys.executable, "-c", _COUNTS_SCRIPT,
            ",".join(DEFERRED), ",".join(LAZY_PACKAGES),
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr

# Runs in a fresh interpreter: a None entry in sys.modules makes every
# import of that package raise ImportError.
_GUARD_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = sys.modules["networkx"] = None

    import repro
    import repro.cli
    import repro.sim
    from repro import (
        Scenario, check_majority_preserving, simulate, uniform_noise_matrix,
    )

    simulate(Scenario(
        workload="plurality", num_nodes=10**6, num_opinions=3,
        engine="counts", num_trials=4, seed=0,
    ))
    simulate(Scenario(
        workload="dynamics", rule="3-majority", num_nodes=10**5,
        num_opinions=3, epsilon=0.3, engine="counts", num_trials=4, seed=0,
    ))
    simulate(Scenario(
        workload="rumor", num_nodes=300, num_opinions=3, epsilon=0.3,
        engine="batched", num_trials=4, seed=0,
    ))
    assert isinstance(repro.__version__, str)

    needs_scipy = lambda: check_majority_preserving(
        uniform_noise_matrix(3, 0.2), 0.2, 0.1
    )
    needs_networkx = lambda: simulate(Scenario(
        workload="rumor", num_nodes=200, num_opinions=3, epsilon=0.3,
        engine="sequential", topology="random_regular", degree=8,
        num_trials=1, seed=0,
    ))
    for name, call in (("scipy", needs_scipy), ("networkx", needs_networkx)):
        try:
            call()
        except ImportError:
            continue
        raise AssertionError(f"ran without importing {name}")
    """
)


def test_simulation_paths_import_neither_scipy_nor_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


# Runs in a fresh interpreter: a simulate, a sweep and a store-backed sweep
# (into the directory given as the first argument) through the CLI, JSON
# output included, leave the experiment package and the deferred modules
# (the second argument) unloaded.
_CLI_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys

    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main([
            "simulate", "--workload", "plurality", "--nodes", "100000",
            "--engine", "counts", "--trials", "4", "--json",
        ])
        main([
            "sweep", "--workload", "rumor", "--nodes", "1000",
            "--engine", "counts", "--trials", "2", "--axis", "epsilon=0.2,0.3",
        ])
        main([
            "sweep", "--workload", "rumor", "--nodes", "1000",
            "--engine", "counts", "--trials", "2", "--axis", "epsilon=0.2,0.3",
            "--store", sys.argv[1],
        ])
    loaded = sorted(
        name for name in sys.modules
        if name == "repro.experiments" or name.startswith("repro.experiments.")
        or name in sys.argv[2].split(",")
    )
    assert not loaded, loaded
    """
)


def test_simulate_and_sweep_commands_do_not_import_the_experiments(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", _CLI_SCRIPT, str(tmp_path), ",".join(DEFERRED)],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert len(list(tmp_path.glob("sweep_*.json"))) == 2


def _third_party_imports(package_dir: Path) -> dict:
    """Top-level name of every absolute non-stdlib import -> first file."""
    found: dict = {}
    for path in sorted(package_dir.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, str(path.relative_to(REPO_ROOT)))
    return found


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_every_third_party_import_is_a_declared_dependency():
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        specs = tomllib.load(handle)["project"]["dependencies"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in specs
    }
    imported = _third_party_imports(REPO_ROOT / "src" / "repro")
    assert "numpy" in imported  # the scan sees imports at all
    undeclared = {
        name: where for name, where in imported.items() if name not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
