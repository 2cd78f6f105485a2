"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload protocol-k3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list-metrics

A run starts ``PROCESSES`` processes one after another (``worker.py``; one
fresh interpreter each, BLAS pinned to one thread).  Every process imports
``repro`` from ``src``, makes one cold call and then warm calls on fresh
seeds until its share of ``--seconds`` is spent.  With ``--trace 0`` the
run reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` each process alternates untraced and probed warm calls, a
fixed number of pairs, and the run reports the per-layer metrics instead.

The line before the last is a run record: commit, host, seeds, and for
every metric its mode, the statistic reported, and the raw samples'
median, quartiles, extremes and count.  The last line is ``{"correct", "attempted", "failed", "metrics"}``;
``failed`` counts calls that raised or failed an output check, and
processes that crashed or timed out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from worker import KERNELS  # noqa: E402
from workloads import STORE_ROOT, WORKLOADS  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
PREDICTIONS = HERE / "predictions.json"
#: Every process of a run together must end well inside 180 seconds.
RUN_TIMEOUT_S = 165.0
#: Fresh processes per run: the samples of the cold metrics.
PROCESSES = 6
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

def declared_metrics():
    return json.loads(BENCHMARK.read_text())


def list_metrics() -> None:
    """Print every metric by name with its unit, and what it should move."""
    declared = declared_metrics()
    predictions = json.loads(PREDICTIONS.read_text())
    print("end-to-end (--trace 0)")
    for metric in declared["end_to_end"]:
        print(
            f"  {metric['name']:<22} {metric['unit']:<6} "
            f"{metric['better']} is better, bound {metric['bound']:.0%}  "
            f"{predictions['end_to_end'][metric['name']]}"
        )
    print("per-layer (--trace 1; totals over the run's traced calls)")
    for metric in declared["per_layer"]:
        print(
            f"  {metric['name']:<22} {metric['unit']:<6} "
            f"{metric['better']} is better"
        )
        for line in predictions["per_layer"].get(metric["name"], []):
            print(f"      {line}")


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a hash
    of the package source, so a record names the code it measured."""
    commit = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_process(config: dict, timeout: float):
    """One worker process; ``(report or None, error or None)``."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")])
    )
    command = [sys.executable, str(HERE / "worker.py"), json.dumps(config)]
    # The worker and its kernel child share one CPU, slots taking turns:
    # neighbours load the host's CPUs unevenly, so a kernel measures the
    # calls' host speed only on the CPU they ran on.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[config["slot"] % len(cpus)]
    # A session of its own, so a timeout or a terminated run kills the
    # worker together with its kernel child.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"slot {config['slot']}: timed out after {timeout:.0f} s"
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return None, f"slot {config['slot']}: exit {process.returncode}: {tail}"
    return json.loads(lines[-1]), None


def spread(values) -> dict:
    values = sorted(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def end_to_end(reports, reference: str) -> dict:
    """Per-metric samples of one run, summarised; ``value`` is reported.

    Every timing is divided by its process's host slowdown, the median
    time of one reference kernel in that process over its uncontended
    seconds (``worker.KERNELS``), and a metric reports the median of
    these.  Set-up (imports, scenario building) is divided by the mixed
    kernel's slowdown, calls by that of the workload's ``reference``
    kernel.  On the shared 2-core VM this was built on, neighbours slowed
    the program by up to 2x, for seconds to minutes at a time, so raw
    medians drifted between runs by more than a regression bound.  The
    raw samples' statistics stay in the record.
    """
    slowdowns = {}
    setup, cold, warm = [], [], []
    for report in reports:
        slowdown = {
            name: statistics.median(times) / KERNELS[name][1]
            for name, times in report["reference_s"].items()
        }
        for name, value in slowdown.items():
            slowdowns.setdefault(name, []).append(value)
        setup.append((report["setup_s"], slowdown["mixed"]))
        if report.get("cold_s") is not None:
            cold.append((report["cold_s"], slowdown[reference]))
        warm += [(wall, rounds, slowdown[reference])
                 for wall, rounds in report["warm"]]
    samples = {
        ("setup_s", "cold"): setup,
        ("first_result_s", "cold"): cold,
        ("warm_s", "warm-fresh-seed"): [(wall, slow) for wall, _, slow in warm],
    }
    stats = {
        f"host_slowdown.{name}": dict(
            spread(values), mode=f"{name} reference kernel",
            value=statistics.median(values),
        )
        for name, values in slowdowns.items()
    }
    stats["peak_rss_mb"] = dict(
        spread([report["peak_rss_mb"] for report in reports]),
        mode="whole process", statistic="median",
    )
    stats["peak_rss_mb"]["value"] = stats["peak_rss_mb"]["median"]
    for (name, mode), pairs in samples.items():
        if pairs:
            stats[name] = dict(
                spread([seconds for seconds, _ in pairs]), mode=mode,
                value=statistics.median(
                    seconds / slowdown for seconds, slowdown in pairs
                ),
                statistic="median of seconds / process host_slowdown "
                f"({'mixed' if name == 'setup_s' else reference} kernel)",
            )
    if warm:
        stats["trial_rounds_per_s"] = dict(
            spread([rounds / wall for wall, rounds, _ in warm]),
            mode="warm-fresh-seed",
            value=sum(rounds for _, rounds, _ in warm)
            / sum(wall / slowdown for wall, _, slowdown in warm),
            statistic="all warm trial-rounds / their wall time, each call's "
            f"divided by its process host_slowdown ({reference} kernel)",
        )
    return stats


def per_layer(reports) -> dict:
    self_s = {}
    counts = {name: 0 for name in layers.COUNT_METRICS}
    walls, pairs, absent = [], [], set()
    for report in reports:
        trace = report["trace"]
        for layer, seconds in trace["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        walls += trace["traced_walls"]
        pairs += trace["overhead_pairs"]
        absent.update(trace["absent"])
    stats = {
        metric: {"value": self_s.get(layer, 0.0)}
        for layer, metric in layers.TIME_METRICS.items()
    }
    stats.update({name: {"value": value} for name, value in counts.items()})
    wall = sum(walls)
    stats["trace.wall_s"] = {"value": wall, "n": len(walls)}
    stats["trace.remainder_s"] = {"value": wall - sum(self_s.values())}
    if pairs:
        untraced = statistics.median(pair[0] for pair in pairs)
        traced = statistics.median(pair[1] for pair in pairs)
        stats["trace.overhead_frac"] = {
            "value": traced / untraced - 1.0, "n": len(pairs),
        }
    resumes = [r["resume_s"] for r in reports if r.get("resume_s") is not None]
    stats["sweep.resume_s"] = {"value": min(resumes, default=0.0),
                               "n": len(resumes)}
    return stats, sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of the run (required with "
                        "--workload; BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}

    # A terminated run raises SystemExit, and run_process then kills and
    # reaps the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    reports, errors = [], []
    try:
        for slot in range(PROCESSES):
            config = {"workload": workload.name, "seed": args.seed,
                      "slot": slot, "budget_s": args.seconds / PROCESSES,
                      "trace": bool(args.trace)}
            report, error = run_process(config, RUN_TIMEOUT_S / PROCESSES)
            if report is None:
                errors.append(error)
            else:
                reports.append(report)
    finally:
        shutil.rmtree(STORE_ROOT, ignore_errors=True)
    if not reports:
        print("perfbench: every process failed:", *errors, sep="\n  ",
              file=sys.stderr)
        return 1

    absent = []
    if args.trace:
        stats, absent = per_layer(reports)
    else:
        stats = end_to_end(reports, workload.reference)
    lost = PROCESSES - len(reports)
    attempted = sum(r["attempted"] for r in reports) + lost
    failed = sum(r["failed"] for r in reports) + lost
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": PROCESSES,
        **source_identity(),
        "host": dict(reports[0]["host"], nproc=len(os.sched_getaffinity(0))),
        "call_seeds": [r["call_seeds"] for r in reports],
        "stats": stats,
        "absent_probes": absent,
        "problems": [p for r in reports for p in r["problems"]] + errors,
    }
    print(json.dumps({"record": record}))
    metrics = {
        name: {"value": stats[name]["value"], "unit": unit}
        for name, unit in units.items()
        if name in stats
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
