"""The experiment harness: one module per reproduced quantitative statement.

The paper has no numbered tables or figures; its evaluation is the set of
theorems, lemmas, claims and worked examples mapped in ``docs/paper_map.md``.
Each ``exp_*`` module here regenerates the empirical counterpart of one of
those statements and returns an :class:`~repro.experiments.results.
ExperimentTable` (``python -m repro run-experiment E<n>`` prints it).
Experiments that run whole protocols or dynamics build a
:class:`~repro.sim.Scenario` and call :func:`~repro.sim.simulate`.

All experiments accept a configuration dataclass with a ``quick()``
constructor (minutes on a laptop, the ``run-all`` default) and a
``full()`` constructor (closer to the asymptotic regime).

Each module registers itself in the declarative spec registry
(:mod:`~repro.experiments.spec`) at import time — id, paper claim,
quick/full configuration constructors, and the trial engines it supports —
and the orchestration layer (:mod:`~repro.experiments.orchestrator`)
executes any subset of registered experiments in parallel with
content-keyed result persistence (``python -m repro run-all``).
"""

from repro.experiments.results import ExperimentTable
from repro.experiments.runner import sweep_product
from repro.experiments.spec import ExperimentSpec, all_specs, get_spec, registered_ids

from repro.experiments import (  # noqa: F401  (re-exported experiment modules)
    exp_ablation_sampling,
    exp_amplification,
    exp_baselines,
    exp_byzantine_degradation,
    exp_epsilon_threshold,
    exp_memory,
    exp_noise_matrices,
    exp_parity,
    exp_plurality_consensus,
    exp_poissonization,
    exp_rumor_scaling,
    exp_stage1_bias,
    exp_stage1_growth,
    exp_stage2_trajectory,
    exp_topologies,
)
from repro.experiments import orchestrator  # noqa: F401,E402  (needs the registry above)
from repro.experiments.orchestrator import ResultStore, run_all  # noqa: E402

__all__ = [
    "ExperimentTable",
    "ExperimentSpec",
    "ResultStore",
    "all_specs",
    "get_spec",
    "registered_ids",
    "run_all",
    "exp_ablation_sampling",
    "exp_amplification",
    "exp_baselines",
    "exp_byzantine_degradation",
    "exp_epsilon_threshold",
    "exp_memory",
    "exp_noise_matrices",
    "exp_parity",
    "exp_plurality_consensus",
    "exp_poissonization",
    "exp_rumor_scaling",
    "exp_stage1_bias",
    "exp_stage1_growth",
    "exp_stage2_trajectory",
    "exp_topologies",
    "sweep_product",
]
