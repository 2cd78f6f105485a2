"""One benchmark process: set up, one cold call, then warm fresh-seed calls,
each call after one run of its fixed reference kernels.

``run.py`` starts this script once per process slot of a run and reads the
JSON object it prints as its last line.  Usage::

    python perfbench/worker.py '{"workload": "protocol-k3", "seed": 1,
        "slot": 0, "budget_s": 3.0, "trace": false}'

The clock for ``setup_s`` starts before ``repro`` (and numpy, which it
imports) is loaded, so set-up is the import plus building and validating
the first call's scenarios.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20
#: Untraced/traced warm-call pairs per process in a ``--trace 1`` run.
TRACE_PAIRS = 1


def mixed_kernel() -> float:
    """Wall seconds of a fixed piece of work that no commit of ``repro``
    changes.  Its four parts take about equal time and are the kinds of
    work most workloads mix: an interpreter loop, small-array ufuncs,
    small generator draws, and large-array passes.
    """
    started = time.perf_counter()
    tally = {}
    for i in range(160000):
        tally[i & 63] = tally.get(i & 63, 0) + i * 3 % 7
    state, step = np.ones(3), np.arange(3.0)
    for _ in range(7500):
        state = np.maximum(state * 0.5 + step, 1.0)
        state.sum()
    generator = np.random.default_rng(7)
    shares = np.array([0.5, 0.3, 0.2])
    for _ in range(2500):
        generator.multinomial(1000, shares)
    values = np.random.default_rng(3).random((200000, 3))
    for _ in range(2):
        np.cumsum(np.log1p(values) @ np.ones(3))
        values = np.sort(values, axis=0) * 0.999
    return time.perf_counter() - started


def draws_kernel() -> float:
    """Wall seconds of bulk multinomial draws and an argmax over them, the
    work of the per-voter chunk sampler, in plain numpy."""
    started = time.perf_counter()
    generator = np.random.default_rng(5)
    shares = np.array([0.3, 0.2, 0.2, 0.15, 0.15])
    for _ in range(3):
        compositions = generator.multinomial(555, shares, size=32768)
        (compositions + generator.random(compositions.shape)).argmax(axis=1)
    return time.perf_counter() - started


def law_kernel() -> float:
    """Wall seconds of the vote-law evaluations' kinds of work in plain
    numpy: powers and products over a composition table, then log-space
    matrix-vector products and exponentials over a dense one."""
    started = time.perf_counter()
    generator = np.random.default_rng(11)
    probabilities = generator.dirichlet(np.ones(4), size=64)
    exponents = generator.integers(0, 36, size=(8436, 4)).astype(float)
    (probabilities[:, np.newaxis, :] ** exponents[np.newaxis]).prod(axis=2)
    dense = generator.integers(0, 666, size=(222000, 3)).astype(float)
    weights = generator.random((222000, 3))
    logs = np.log(probabilities[:, :3])
    for row in range(4):
        np.exp(dense @ logs[row]) @ weights
    return time.perf_counter() - started


#: Reference kernels by name, each with about its seconds on an uncontended
#: host.  ``run.py`` divides a process's timings by the median of its times
#: of one kernel over those seconds, so a host that runs everything slower
#: for a while does not read as a slower program.  On a shared host,
#: neighbours slow interpreter-bound work (the mixed kernel) by up to 2x,
#: array math less and bulk draws in C least, so each workload names the
#: kernel whose kind of work dominates its calls; set-up uses the mixed one.
KERNELS = {
    "mixed": (mixed_kernel, 0.1),
    "law": (law_kernel, 0.07),
    "draws": (draws_kernel, 0.05),
}


class Worker:
    def __init__(self, config):
        self.workload = workloads.WORKLOADS[config["workload"]]
        self.seed = int(config["seed"])
        self.slot = int(config["slot"])
        self.budget_s = float(config["budget_s"])
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.call_seeds = []
        self.law_counters = {"law_hits": 0, "law_misses": 0}

    def inputs(self, label):
        seed = workloads.derive_seed(self.seed, self.slot, label)
        self.call_seeds.append(seed)
        return self.workload.inputs(seed)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def timed_call(self, inputs, *, traced=False, store_dir=None):
        """``(output, wall seconds)`` of one call; traced calls run with the
        probes installed, all others on the unmodified program."""
        store = None
        if store_dir is not None:
            store = workloads.result_store(store_dir)
        if traced:
            before = self.tracer.cache_counters()
            self.tracer.install()
        started = time.perf_counter()
        try:
            output = workloads.call(inputs, store)
        finally:
            wall = time.perf_counter() - started
            if traced:
                self.tracer.uninstall()
        if traced:
            after = self.tracer.cache_counters()
            for key in self.law_counters:
                if key in after:
                    self.law_counters[key] += after[key] - before[key]
        return output, wall

    def checked_call(self, inputs, **kwargs):
        """One timed call plus its output checks; ``None`` when it raised."""
        try:
            output, wall = self.timed_call(inputs, **kwargs)
        except Exception as error:  # a failing call is a measured outcome
            self.record([f"call raised {type(error).__name__}: {error}"])
            return None, None
        results = workloads.results_of(output)
        self.record(workloads.check_results(workloads.scenarios_of(inputs), results))
        return output, wall


@contextmanager
def store_dir(uses_store):
    """A fresh, empty result-store directory for one call (or ``None``)."""
    if not uses_store:
        yield None
        return
    workloads.STORE_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=workloads.STORE_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def serve_kernels(connection, parent_end):
    """The child side of :func:`kernel_runner`: time each kernel asked for,
    until the parent closes its end or exits."""
    parent_end.close()
    while True:
        try:
            name = connection.recv()
        except EOFError:
            return
        connection.send(KERNELS[name][0]())


@contextmanager
def kernel_runner(samples):
    """A function that times every kernel named in ``samples`` once, in a
    forked child, and appends each time to that kernel's list."""
    context = multiprocessing.get_context("fork")
    connection, child_end = context.Pipe()
    child = context.Process(
        target=serve_kernels, args=(child_end, connection), daemon=True
    )
    child.start()
    child_end.close()

    def run_kernels():
        for name, times in samples.items():
            connection.send(name)
            times.append(connection.recv())

    try:
        yield run_kernels
    finally:
        connection.close()
        child.join()


def run(config):
    worker = Worker(config)
    cold_inputs = worker.inputs("cold")
    workloads.validate(cold_inputs)
    report = {"setup_s": time.perf_counter() - STARTED, "warm": []}
    trace = bool(config["trace"])
    report["reference_s"] = (
        {} if trace else {"mixed": [], worker.workload.reference: []}
    )
    if trace:
        import layers

        worker.tracer = layers.Tracer()
    uses_store = worker.workload.uses_store
    traced_walls, pairs = [], []

    def warm_call(label, traced=False):
        with store_dir(uses_store) as path:
            return worker.checked_call(
                worker.inputs(label), traced=traced, store_dir=path
            )

    # The kernels run in a forked child, one at a time while this process
    # waits, so their arrays never count in its peak memory.
    with kernel_runner(report["reference_s"]) as run_kernels:
        cold_started = time.perf_counter()
        run_kernels()
        with store_dir(uses_store) as path:
            cold, report["cold_s"] = worker.checked_call(
                cold_inputs, traced=trace, store_dir=path
            )
            if trace and cold is not None:
                traced_walls.append(report["cold_s"])
            if path is not None and cold is not None:
                resumed, report["resume_s"] = worker.checked_call(
                    cold_inputs, traced=trace, store_dir=path
                )
                if resumed is not None:
                    if trace:
                        traced_walls.append(report["resume_s"])
                    worker.record(
                        workloads.same_results(
                            workloads.results_of(cold), workloads.results_of(resumed)
                        )
                        + ([] if resumed.cache_hits == len(resumed) else
                           [f"resume served {resumed.cache_hits}/{len(resumed)} "
                            "points from the store"])
                    )

        if trace:
            # A fixed number of untraced/traced pairs, so per-layer totals
            # compare across commits and the pairs give the tracing overhead.
            for pair in range(TRACE_PAIRS):
                untraced = warm_call(f"warm-{2 * pair}")[1]
                traced = warm_call(f"warm-{2 * pair + 1}", traced=True)[1]
                if traced is not None:
                    traced_walls.append(traced)
                    if untraced is not None:
                        pairs.append((untraced, traced))
        else:
            # Warm calls: fresh seeds on the tables the cold call built, each
            # after the reference kernels, which thereby sample the host's speed
            # as often as the calls do.
            calls = 0
            while not calls or time.perf_counter() - cold_started < worker.budget_s:
                run_kernels()
                output, wall = warm_call(f"warm-{calls}")
                calls += 1
                if output is not None:
                    rounds = workloads.trial_rounds(workloads.results_of(output))
                    report["warm"].append((wall, rounds))

    # After the timed section, so it cannot warm what was measured.
    if cold is not None and hasattr(cold_inputs, "scenarios"):
        worker.record(
            workloads.serial_point_check(
                cold_inputs, workloads.results_of(cold), worker.seed
            )
        )

    if trace:
        tracer = worker.tracer
        counts = dict(tracer.counts)
        counts["vote_law.law_hits"] = worker.law_counters["law_hits"]
        counts["vote_law.law_misses"] = worker.law_counters["law_misses"]
        report["trace"] = {
            "self_s": dict(tracer.self_s),
            "counts": counts,
            "traced_walls": traced_walls,
            "overhead_pairs": pairs,
            "absent": tracer.absent,
        }
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=worker.attempted,
        failed=worker.failed,
        problems=worker.problems,
        call_seeds=worker.call_seeds,
        host=workloads.host_info(),
    )
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
