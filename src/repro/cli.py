"""Command-line interface.

The CLI exposes the most common workflows without writing Python:

* ``python -m repro list-experiments`` — show the experiment index (E1–E15)
  with each experiment's supported trial engines and, when a result store is
  present, its cache status;
* ``python -m repro run-experiment E5 [--full] [--seed 0]`` — regenerate one
  experiment table and print it;
* ``python -m repro run-all [--jobs 4] [--out results] [--resume]`` — run
  every registered experiment (or an explicit subset) through the
  orchestration layer: deterministic per-experiment seeds, optional process
  parallelism, persistent content-keyed result artifacts, and
  resume/skip-unchanged semantics;
* ``python -m repro simulate --workload rumor --nodes 2000 --trials 32`` —
  the generic facade entry point: build one declarative
  :class:`~repro.sim.Scenario` (any workload, any engine tier) and run it
  through :func:`~repro.sim.simulate`, printing the unified summary
  (``--json`` emits the full :class:`~repro.sim.SimulationResult`;
  ``--faults KIND:F[:PARAM]`` injects a crash/omission/liar/adaptive
  adversary at faulty fraction F);
* ``python -m repro sweep --workload rumor --axis epsilon=0.2,0.3,0.4`` —
  run a whole parameter grid as one batched
  :func:`~repro.sim.simulate_sweep` call (repeat ``--axis NAME=V1,V2,...``
  per swept Scenario field; ``--store DIR`` resumes cached points,
  ``--json`` emits the per-point summaries).

``simulate`` covers single runs and batches of every workload:
``--workload plurality --support 400 --bias 0.2`` starts from a partial,
biased support; ``--workload dynamics --rule 3-majority`` runs a baseline
dynamic on the noisy pull substrate (``--rule h-majority`` needs
``--sample-size``); ``--trials 1 --engine sequential`` is one reference run.
``--engine`` picks the tier: ``batched`` (vectorized ensemble), ``counts``
(sufficient statistics, scales to millions of nodes), ``sequential``
(reference loop), ``analytic`` (exact Markov chain, no sampling; it
refuses a scenario past its state or ``maj()`` table budget and names
``counts``), or ``auto`` (the default: analytic when exactly tractable,
else counts from ``--counts-threshold`` nodes up, else batched).

``run-experiment`` and ``run-all`` accept the same ``--engine`` /
``--counts-threshold`` pair and override the experiment configs' trial
engine with it (there ``auto`` means batched or counts by population
size); an engine an experiment does not support is rejected with an
explicit error naming the supported engines (``run-all`` skips such
experiments instead).  Every command accepts ``--seed`` for
reproducibility.  The CLI is a thin layer over the public API; anything it
prints can also be obtained programmatically (see README).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dynamics import DYNAMICS_RULES
from repro.faults import FAULT_KINDS, FaultModel
from repro.sim import (
    ENGINE_POLICIES,
    WORKLOADS,
    Scenario,
    set_default_counts_threshold,
    simulate,
)
from repro.utils.artifacts import DEFAULT_STORE_DIR

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import cProfile

__all__ = ["main", "build_parser"]


def _registered_ids() -> list:
    """The registered experiment ids.

    The experiment package (every ``exp_*`` module and the orchestrator)
    is imported here and in the handlers that use it, not with the CLI, so
    ``simulate`` and ``sweep`` runs never load it.
    """
    import repro.experiments

    return repro.experiments.registered_ids()


class _ExperimentIds:
    """``run-experiment``'s argparse choices, read on first use.

    argparse tests membership when it parses the argument and iterates the
    choices for its "invalid choice" message; the parser itself is built
    without importing the experiment package (the argument has an explicit
    ``metavar``, so no usage string lists the choices at build time).
    """

    def __contains__(self, value: object) -> bool:
        return value in _registered_ids()

    def __iter__(self):
        return iter(_registered_ids())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Noisy rumor spreading and plurality consensus (PODC 2016) - reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-experiments",
        help="list the reproducible experiments (E1-E15) with their engines "
             "and cache status",
    )
    list_parser.add_argument(
        "--out", default=DEFAULT_STORE_DIR, metavar="DIR",
        help="result-store directory to check cache status against "
             f"(default {DEFAULT_STORE_DIR}/)",
    )
    list_parser.add_argument(
        "--full", action="store_true",
        help="check cache status for the full() configurations",
    )
    list_parser.add_argument("--seed", type=int, default=0)

    run_parser = subparsers.add_parser(
        "run-experiment", help="regenerate one experiment table"
    )
    run_parser.add_argument(
        "experiment", choices=_ExperimentIds(), metavar="EXPERIMENT",
        help="experiment id (see list-experiments)",
    )
    run_parser.add_argument(
        "--full", action="store_true",
        help="use the full() configuration instead of quick()",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    _add_engine_arguments(run_parser, default=None)

    run_all_parser = subparsers.add_parser(
        "run-all",
        help="run every registered experiment (or a subset) through the "
             "orchestrator, with parallelism and persistent results",
    )
    run_all_parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment ids to run (default: all registered)",
    )
    run_all_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial)",
    )
    run_all_parser.add_argument(
        "--full", action="store_true",
        help="use the full() configurations instead of quick()",
    )
    run_all_parser.add_argument("--seed", type=int, default=0)
    run_all_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="N",
        help="replication sweep: run every experiment once per base seed "
             "(overrides --seed)",
    )
    run_all_parser.add_argument(
        "--out", default=DEFAULT_STORE_DIR, metavar="DIR",
        help="directory for the persistent result artifacts "
             f"(default {DEFAULT_STORE_DIR}/); 'none' disables persistence",
    )
    run_all_parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments whose identity (id + config + seed + engine "
             "+ code version) already has a stored result",
    )
    run_all_parser.add_argument(
        "--print-tables", action="store_true",
        help="print every experiment table after the status summary",
    )
    _add_engine_arguments(run_all_parser, default=None)

    simulate_parser = subparsers.add_parser(
        "simulate",
        help="run any workload on any engine tier through the unified "
             "Scenario facade",
    )
    simulate_parser.add_argument(
        "--workload", choices=WORKLOADS, default="rumor",
        help="what to simulate (default rumor)",
    )
    _add_common_instance_arguments(simulate_parser)
    simulate_parser.add_argument(
        "--trials", type=int, default=32,
        help="number of independent trials R (default 32)",
    )
    simulate_parser.add_argument(
        "--correct-opinion", type=int, default=1,
        help="the rumor source's opinion (workload rumor, default 1)",
    )
    simulate_parser.add_argument(
        "--support", type=int, default=None,
        help="initially opinionated nodes (plurality/dynamics; "
             "default: all nodes)",
    )
    simulate_parser.add_argument(
        "--bias", type=float, default=0.2,
        help="plurality bias within the support (default 0.2)",
    )
    simulate_parser.add_argument(
        "--rule", choices=DYNAMICS_RULES, default=None,
        help="baseline update rule (workload dynamics)",
    )
    simulate_parser.add_argument(
        "--sample-size", type=int, default=None,
        help="observations per round for the h-majority rule",
    )
    simulate_parser.add_argument(
        "--max-rounds", type=int, default=300,
        help="round budget per dynamics trial (default 300)",
    )
    simulate_parser.add_argument(
        "--process", choices=("push", "balls_bins", "poisson"),
        default="push",
        help="delivery process for the protocol workloads (default push)",
    )
    simulate_parser.add_argument(
        "--faults", default=None, metavar="KIND:F[:PARAM]",
        help="inject faulty nodes into the protocol workloads: KIND one of "
             f"{'/'.join(FAULT_KINDS)}, F the faulty fraction, PARAM the "
             "crash round (crash) or per-message drop rate (omission) — "
             "e.g. liar:0.1, crash:0.2:3, omission:0.1:0.5",
    )
    simulate_parser.add_argument(
        "--json", action="store_true",
        help="print the full SimulationResult as JSON instead of the summary",
    )
    simulate_parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top-20 cumulative-time "
             "functions to stderr after the summary",
    )
    _add_engine_arguments(simulate_parser, default="auto")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a whole parameter grid as one batched sweep "
             "(simulate_sweep over a ScenarioGrid)",
    )
    sweep_parser.add_argument(
        "--workload", choices=WORKLOADS, default="rumor",
        help="what to simulate at every grid point (default rumor)",
    )
    sweep_parser.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2,...",
        help="swept Scenario field and its values, e.g. "
             "--axis epsilon=0.1,0.2,0.3; repeat for a multi-axis grid "
             "(the last axis varies fastest)",
    )
    _add_common_instance_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--trials", type=int, default=32,
        help="number of independent trials R per grid point (default 32)",
    )
    sweep_parser.add_argument(
        "--correct-opinion", type=int, default=1,
        help="the rumor source's opinion (workload rumor, default 1)",
    )
    sweep_parser.add_argument(
        "--support", type=int, default=None,
        help="initially opinionated nodes (plurality/dynamics; "
             "default: all nodes)",
    )
    sweep_parser.add_argument(
        "--bias", type=float, default=0.2,
        help="plurality bias within the support (default 0.2)",
    )
    sweep_parser.add_argument(
        "--rule", choices=DYNAMICS_RULES, default=None,
        help="baseline update rule (workload dynamics)",
    )
    sweep_parser.add_argument(
        "--sample-size", type=int, default=None,
        help="observations per round for the h-majority rule",
    )
    sweep_parser.add_argument(
        "--max-rounds", type=int, default=300,
        help="round budget per dynamics trial (default 300)",
    )
    sweep_parser.add_argument(
        "--process", choices=("push", "balls_bins", "poisson"),
        default="push",
        help="delivery process for the protocol workloads (default push)",
    )
    sweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory: cached grid points are sliced out "
             "of the batch and merged back into the sweep result",
    )
    sweep_parser.add_argument(
        "--json", action="store_true",
        help="print the sweep summary as JSON instead of the table",
    )
    _add_engine_arguments(sweep_parser, default="auto")

    return parser


def _add_engine_arguments(
    parser: argparse.ArgumentParser, default: Optional[str]
) -> None:
    """The shared ``--engine`` / ``--counts-threshold`` options.

    Every trial-running subcommand (``simulate``, ``sweep``,
    ``run-experiment``, ``run-all``) accepts the same engine vocabulary;
    for ``run-experiment`` and ``run-all`` the default is ``None`` (keep
    the experiment configs' own engine choice).
    """
    parser.add_argument(
        "--engine", choices=ENGINE_POLICIES, default=default,
        help="engine tier: batched (R,n) vectorized ensemble, counts "
             "(R,k) sufficient statistics, sequential reference loop, "
             "analytic (exact Markov chain, no sampling, small n*k only; "
             "simulate/sweep only), or auto (simulate/sweep: analytic when "
             "exactly tractable; everywhere: counts from --counts-threshold "
             "nodes up, else batched)"
             + ("" if default is None else f" (default {default})"),
    )
    parser.add_argument(
        "--counts-threshold", type=int, default=None, metavar="N",
        help="population size from which --engine auto picks the counts "
             "engine (default: repro.sim.DEFAULT_COUNTS_THRESHOLD)",
    )


def _validate_engine_arguments(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Uniform validation of the shared engine options."""
    if args.counts_threshold is not None and args.counts_threshold < 1:
        parser.error("--counts-threshold must be >= 1")
    if args.counts_threshold is not None and args.engine != "auto":
        parser.error("--counts-threshold only applies to --engine auto")


def _add_common_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=2000, help="population size n")
    parser.add_argument("--opinions", type=int, default=3, help="number of opinions k")
    parser.add_argument(
        "--epsilon", type=float, default=0.3,
        help="noise parameter of the uniform-noise matrix (default 0.3)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _command_list_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import all_specs
    from repro.experiments.orchestrator import ExperimentJob, ResultStore, job_seed

    store = ResultStore(args.out)
    specs = all_specs()
    id_width = max(len(spec.experiment_id) for spec in specs)
    description_width = max(len(spec.description) for spec in specs)
    engines_width = max(
        len(", ".join(spec.supported_engines)) for spec in specs
    )
    for spec in specs:
        job = ExperimentJob(
            experiment_id=spec.experiment_id,
            full=args.full,
            seed=job_seed(args.seed, spec),
        )
        cached = "cached" if store.has(job) else "-"
        print(
            f"{spec.experiment_id.ljust(id_width)}  "
            f"{spec.description.ljust(description_width)}  "
            f"engines: {', '.join(spec.supported_engines).ljust(engines_width)}  "
            f"[{cached}]"
        )
    return 0


def _apply_engine_override(
    spec, config, engine: Optional[str], parser: argparse.ArgumentParser
):
    """Validate ``--engine`` against the spec and apply it to the config."""
    if engine is None:
        return config
    if not spec.supports_engine(engine):
        parser.error(
            f"experiment {spec.experiment_id} does not support "
            f"--engine {engine}; supported engines: "
            f"{', '.join(spec.supported_engines)}"
        )
    if config is not None and hasattr(config, "trial_engine"):
        config.trial_engine = engine
    return config


def _command_run_experiment(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.experiments import get_spec

    spec = get_spec(args.experiment)
    config = spec.build_config(args.full)
    config = _apply_engine_override(spec, config, args.engine, parser)
    try:
        if args.counts_threshold is not None:
            # Experiment configs only carry an engine name, so the auto
            # switch-over point goes through the process default — restored
            # afterwards so programmatic main() callers are unaffected.
            set_default_counts_threshold(args.counts_threshold)
        table = spec.run_fn(config, random_state=args.seed)
    finally:
        if args.counts_threshold is not None:
            set_default_counts_threshold(None)
    print(table.to_text())
    return 0


def _command_run_all(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.experiments.orchestrator import ResultStore, run_all

    experiment_ids = args.experiments or None
    if experiment_ids is not None:
        known = _registered_ids()
        unknown = [i for i in experiment_ids if i not in known]
        if unknown:
            parser.error(
                f"unknown experiment(s): {', '.join(unknown)}; "
                f"registered: {', '.join(known)}"
            )
    store = None if args.out == "none" else ResultStore(args.out)
    if args.resume and store is None:
        parser.error("--resume requires a result store (--out DIR)")
    started = time.perf_counter()
    # The threshold travels inside every job (and its store identity), so
    # it reaches worker processes and never aliases cached artifacts.
    reports = run_all(
        experiment_ids,
        jobs=args.jobs,
        seed=args.seed,
        seeds=args.seeds,
        full=args.full,
        engine=args.engine,
        counts_threshold=args.counts_threshold,
        store=store,
        resume=args.resume,
        log=print,
    )
    elapsed = time.perf_counter() - started
    ran = sum(report.status == "ran" for report in reports)
    cached = sum(report.status == "cached" for report in reports)
    skipped = sum(report.status == "skipped" for report in reports)
    failed = [report for report in reports if report.status == "failed"]
    print(
        f"run-all: {ran} ran, {cached} cached, {skipped} skipped, "
        f"{len(failed)} failed in {elapsed:.2f} s"
        + (f" (results in {store.root}/)" if store is not None else "")
    )
    for report in failed:
        print(f"FAILED {report.experiment_id}: {report.error}")
    if args.print_tables:
        for report in reports:
            if report.table is not None:
                print()
                print(report.table.to_text())
    return 1 if failed else 0


def _run_scenario(
    scenario: Scenario, parser: argparse.ArgumentParser
):
    """Execute a scenario, turning validation errors into parser errors."""
    try:
        return simulate(scenario)
    except ValueError as error:
        parser.error(str(error))


def _profile_report(profiler: cProfile.Profile, limit: int = 20) -> str:
    """The top-``limit`` cumulative-time functions of a finished profile."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(limit)
    return stream.getvalue().rstrip()


def _result_exit_code(result) -> int:
    """0 when every sampled trial succeeded (analytic runs always return 0:
    they report probabilities, not per-trial verdicts)."""
    if result.is_analytic:
        return 0
    return 0 if result.success_count == result.num_trials else 1


def _parse_faults(spec: str) -> FaultModel:
    """Parse ``--faults KIND:FRACTION[:PARAM]`` into a :class:`FaultModel`.

    ``PARAM`` is the crash round for ``crash`` and the per-message drop
    rate for ``omission``; the liar and adaptive adversaries take none.
    """
    parts = [part.strip() for part in spec.split(":")]
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"--faults must look like KIND:FRACTION[:PARAM], e.g. liar:0.1 "
            f"or crash:0.2:3 (got {spec!r})"
        )
    kind = parts[0]
    try:
        knobs = {"kind": kind, "fraction": float(parts[1])}
        if len(parts) == 3:
            if kind == "crash":
                knobs["crash_round"] = int(parts[2])
            elif kind == "omission":
                knobs["drop_rate"] = float(parts[2])
            else:
                raise ValueError(
                    f"--faults {kind} takes no extra parameter; only crash "
                    "(crash round) and omission (drop rate) do"
                )
    except ValueError as error:
        raise ValueError(f"--faults {spec!r}: {error}") from None
    return FaultModel(**knobs)


def _command_simulate(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    try:
        faults = _parse_faults(args.faults) if args.faults else None
        scenario = Scenario(
            workload=args.workload,
            num_nodes=args.nodes,
            num_opinions=args.opinions,
            epsilon=args.epsilon,
            engine=args.engine,
            num_trials=args.trials,
            seed=args.seed,
            counts_threshold=args.counts_threshold,
            correct_opinion=args.correct_opinion,
            support_size=args.support,
            bias=args.bias,
            rule=args.rule,
            sample_size=args.sample_size,
            max_rounds=args.max_rounds,
            process=args.process,
            faults=faults,
        )
    except ValueError as error:
        parser.error(str(error))
    # The profiler modules load only for --profile: they cost a cold
    # process about 9 ms.
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = _run_scenario(scenario, parser)
        finally:
            profiler.disable()
        # Stats go to stderr so ``--json`` output stays parseable.
        print(_profile_report(profiler), file=sys.stderr)
    else:
        result = _run_scenario(scenario, parser)
    if args.json:
        print(result.to_json())
        return _result_exit_code(result)
    print(f"workload              : {result.workload}")
    print(f"nodes                 : {result.num_nodes}")
    print(f"opinions              : {result.num_opinions}")
    print(f"noise matrix          : {scenario.build_noise().name}")
    if faults is not None:
        print(
            f"faults                : {faults.kind} "
            f"(f={faults.fraction:g}, {scenario.faulty_count()} nodes)"
        )
    print(f"engine                : {result.engine}")
    degraded = result.provenance.get("engine_degraded_reason")
    if degraded:
        print(f"engine degraded       : {degraded}")
    if result.is_analytic:
        print(f"analytic method       : {result.analytic_method}")
        if result.state_space_size is not None:
            print(f"state space           : {result.state_space_size}")
    else:
        print(f"trials                : {result.num_trials}")
    print(f"target opinion        : {result.target_opinion}")
    print(f"convergence rate      : {result.convergence_rate:.4f}")
    print(f"success rate          : {result.success_rate:.4f}")
    print(f"mean rounds           : {result.mean_rounds:.1f}")
    print(f"mean final bias       : {result.mean_final_bias:.4f}")
    elapsed = result.provenance["wall_time_seconds"]
    print(f"wall time             : {elapsed:.3f} s")
    if not result.is_analytic:
        print(
            f"throughput            : {result.num_trials / elapsed:.2f} "
            "trials/s"
        )
    return _result_exit_code(result)


def _parse_axis_values(raw: str) -> list:
    """Parse a ``--axis`` value list: int, then float, then bare string."""
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            pass
        values.append(token)
    return values


def _command_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    import json as json_module

    from repro.sim import ScenarioGrid, simulate_sweep

    axes = {}
    for spec in args.axis:
        name, separator, raw = spec.partition("=")
        name = name.strip()
        if not separator or not name:
            parser.error(f"--axis must look like NAME=V1,V2,... (got {spec!r})")
        values = _parse_axis_values(raw)
        if not values:
            parser.error(f"--axis {name} needs at least one value")
        axes[name] = values
    if not axes:
        parser.error("sweep needs at least one --axis NAME=V1,V2,...")
    try:
        base = Scenario(
            workload=args.workload,
            num_nodes=args.nodes,
            num_opinions=args.opinions,
            epsilon=args.epsilon,
            engine=args.engine,
            num_trials=args.trials,
            seed=args.seed,
            counts_threshold=args.counts_threshold,
            correct_opinion=args.correct_opinion,
            support_size=args.support,
            bias=args.bias,
            rule=args.rule,
            sample_size=args.sample_size,
            max_rounds=args.max_rounds,
            process=args.process,
        )
        grid = ScenarioGrid(base, axes)
        store = None
        if args.store is not None:
            from repro.utils.artifacts import ResultStore

            store = ResultStore(args.store)
        sweep = simulate_sweep(grid, store=store)
    except ValueError as error:
        parser.error(str(error))
    rows = sweep.summary()
    if args.json:
        print(json_module.dumps(
            {
                "grid": grid.to_dict(),
                "wall_time_seconds": sweep.wall_time_seconds,
                "cache_hits": sweep.cache_hits,
                "points": rows,
            },
            indent=2,
        ))
        return 0
    axis_names = list(grid.axis_names)
    header = axis_names + ["engine", "cached", "success_rate", "mean_rounds"]
    widths = [max(len(name), 12) for name in header]
    print("  ".join(name.ljust(width) for name, width in zip(header, widths)))
    for row in rows:
        cells = [f"{row[name]:g}" if isinstance(row[name], float) else str(row[name])
                 for name in axis_names]
        cells += [
            str(row["engine"]),
            "yes" if row["from_cache"] else "-",
            f"{row['success_rate']:.4f}",
            f"{row['mean_rounds']:.1f}",
        ]
        print("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)))
    print(
        f"sweep: {len(rows)} points ({sweep.cache_hits} cached) in "
        f"{sweep.wall_time_seconds:.2f} s"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "engine") and hasattr(args, "counts_threshold"):
        _validate_engine_arguments(args, parser)
    if args.command == "list-experiments":
        return _command_list_experiments(args)
    if args.command == "run-experiment":
        return _command_run_experiment(args, parser)
    if args.command == "run-all":
        return _command_run_all(args, parser)
    if args.command == "simulate":
        return _command_simulate(args, parser)
    if args.command == "sweep":
        return _command_sweep(args, parser)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
