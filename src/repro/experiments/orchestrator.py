"""The experiment orchestration layer: parallel sweeps + persistent results.

Three pieces turn the registered experiment specs
(:mod:`~repro.experiments.spec`) into a production-style batch system:

* :class:`ResultStore` — a content-keyed JSON store under a ``results/``
  directory.  A run's key is the SHA-256 of its *identity*: experiment id,
  configuration (as a canonical dictionary), seed, engine override, and the
  code version of the defining experiment module (plus the shared stage
  helpers and the sim layer).
  Identical identities hit the cache; any change to the configuration, the
  seed, the engine, or the experiment code misses and recomputes.
* :func:`run_experiment_job` — one experiment execution as a plain,
  picklable function of an :class:`ExperimentJob`, so work can fan out
  across a process pool.
* :func:`run_all` — the sweep executor behind ``python -m repro run-all``:
  runs every requested experiment (quick or full configuration) with a
  deterministic per-experiment seed (the
  :func:`~repro.utils.rng.derive_seed` spawned-generator discipline, keyed
  on the experiment's numeric id so the derivation is independent of which
  subset runs), optionally in parallel over ``jobs`` worker processes, and
  persists every table to the store.  Because each job's randomness is
  derived from its identity rather than from execution order, a parallel
  run produces *identical records* to a serial run — the property the
  test-suite asserts — and a second run with ``resume=True`` reports every
  experiment as cached without recomputing anything.

The process pool falls back to serial execution when the platform cannot
provide worker processes (or when ``jobs <= 1``), so ``run_all`` always
completes.  The sweep is also *crash-tolerant*: a job that raises (or
takes its worker process down) no longer kills the batch — it is retried
once, and if it fails again a structured failure table takes its place
(status ``"failed"``, never persisted to the store) while every other
experiment completes normally.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments import runner as runner_module
from repro.experiments import spec as spec_module
from repro.experiments.results import ExperimentTable, jsonify_value
from repro.experiments.spec import ExperimentSpec, get_spec, registered_ids
from repro.sim import set_default_counts_threshold
from repro.utils.rng import derive_seed

__all__ = [
    "ResultStore",
    "ExperimentJob",
    "ExperimentRunReport",
    "run_experiment_job",
    "run_all",
    "job_seed",
    "experiment_code_version",
    "config_fingerprint",
    "DEFAULT_STORE_DIR",
]

#: Default location of the persistent result artifacts, relative to the
#: caller's working directory.
DEFAULT_STORE_DIR = "results"

_code_version_cache: Dict[str, str] = {}


def _module_source(module) -> str:
    """The module's source text ('' when unavailable, e.g. frozen builds)."""
    try:
        return inspect.getsource(module)
    except (OSError, TypeError):  # pragma: no cover - frozen/packed builds
        return ""


def experiment_code_version(spec: ExperimentSpec) -> str:
    """A short fingerprint of the code a run of ``spec`` executes.

    Hashes the defining experiment module together with the shared stage
    helpers of :mod:`~repro.experiments.runner` and the :mod:`repro.sim`
    dispatch layer the experiments run through, so editing any of them
    invalidates the store entries of the affected experiments (the "code
    version" component of the content key).  The deeper simulation layers
    are deliberately not hashed — they are covered by the golden and
    engine-agreement test-suites, and hashing the whole package would turn
    every docstring edit into a full cache flush.
    """
    cached = _code_version_cache.get(spec.module_name)
    if cached is not None:
        return cached
    import importlib

    from repro.sim import engines as sim_engines_module
    from repro.sim import facade as sim_facade_module
    from repro.sim import result as sim_result_module
    from repro.sim import scenario as sim_scenario_module

    module = importlib.import_module(spec.module_name)
    digest = hashlib.sha256()
    digest.update(_module_source(module).encode())
    digest.update(_module_source(runner_module).encode())
    digest.update(_module_source(spec_module).encode())
    digest.update(_module_source(sim_engines_module).encode())
    digest.update(_module_source(sim_facade_module).encode())
    digest.update(_module_source(sim_scenario_module).encode())
    digest.update(_module_source(sim_result_module).encode())
    version = digest.hexdigest()[:16]
    _code_version_cache[spec.module_name] = version
    return version


def config_fingerprint(config: Any) -> Any:
    """``config`` as canonical plain-Python data for hashing and storage.

    Dataclass configurations become (sorted) dictionaries with tuples
    reduced to lists, so two configurations with equal field values always
    produce the same fingerprint regardless of sequence type.
    """
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return jsonify_value(dataclasses.asdict(config))
    return jsonify_value(config)


@dataclass(frozen=True)
class ExperimentJob:
    """The identity of one orchestrated experiment run.

    Everything that determines the run's output is here — which is exactly
    why the store can key on it: same job, same records.  In particular the
    ``"auto"`` engine's counts switch-over threshold is part of the job
    (not just a process-global), so it both keys the store and reaches
    worker processes regardless of the multiprocessing start method.
    """

    experiment_id: str
    full: bool = False
    seed: int = 0
    engine: Optional[str] = None
    counts_threshold: Optional[int] = None

    def build_config(self) -> Any:
        """The configuration object this job runs with (engine applied)."""
        spec = get_spec(self.experiment_id)
        config = spec.build_config(self.full)
        if self.engine is not None:
            spec.validate_engine(self.engine)
            if config is not None and hasattr(config, "trial_engine"):
                config.trial_engine = self.engine
        return config

    def identity(self) -> Dict[str, Any]:
        """The canonical content-key material for this job."""
        spec = get_spec(self.experiment_id)
        return {
            "experiment_id": self.experiment_id,
            "config": config_fingerprint(self.build_config()),
            "seed": int(self.seed),
            "engine": self.engine,
            "counts_threshold": self.counts_threshold,
            "code_version": experiment_code_version(spec),
        }


class ResultStore:
    """Content-keyed persistence of experiment tables under one directory.

    Entries are JSON files named ``<experiment_id>_<key-prefix>.json``; the
    key is the SHA-256 of the job identity (experiment id + canonical
    config + seed + engine + code version).  ``get``/``put`` work on
    :class:`ExperimentTable` objects; the lower-level ``fetch``/``store``
    pair works on arbitrary JSON payloads so other sweep scripts (e.g.
    ``examples/scaling_study.py``) can reuse the same resume semantics.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    # ---------------- low-level payload interface ---------------- #

    @staticmethod
    def key_of(identity: Mapping[str, Any]) -> str:
        """The SHA-256 content key of a canonical identity mapping."""
        canonical = json.dumps(
            jsonify_value(identity), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _payload_path(self, label: str, key: str) -> Path:
        return self.root / f"{label}_{key[:16]}.json"

    def fetch(
        self, label: str, identity: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The stored payload for ``identity`` (``None`` on a cache miss)."""
        path = self._payload_path(label, self.key_of(identity))
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("store_key") != self.key_of(identity):
            return None
        return document.get("payload")

    def store(
        self,
        label: str,
        identity: Mapping[str, Any],
        payload: Mapping[str, Any],
    ) -> Path:
        """Persist ``payload`` under ``identity``'s content key."""
        key = self.key_of(identity)
        path = self._payload_path(label, key)
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "store_key": key,
            "identity": jsonify_value(identity),
            "payload": jsonify_value(payload),
        }
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path

    # ---------------- experiment-table interface ---------------- #

    def get(self, job: ExperimentJob) -> Optional[ExperimentTable]:
        """The cached table for ``job``, or ``None`` on a miss."""
        payload = self.fetch(job.experiment_id, job.identity())
        if payload is None:
            return None
        return ExperimentTable.from_json(payload)

    def put(self, job: ExperimentJob, table: ExperimentTable) -> Path:
        """Persist ``table`` as the result of ``job``."""
        return self.store(
            job.experiment_id, job.identity(), table.to_json_dict()
        )

    def has(self, job: ExperimentJob) -> bool:
        """``True`` iff a valid cached table exists for ``job``."""
        return self.get(job) is not None


def run_experiment_job(job: ExperimentJob) -> ExperimentTable:
    """Execute one experiment job and return its provenance-stamped table.

    Module-level (hence picklable) so :func:`run_all` can dispatch jobs to
    worker processes; the provenance records the full identity, which makes
    every stored artifact self-describing.
    """
    spec = get_spec(job.experiment_id)
    if job.engine is not None:
        spec.validate_engine(job.engine)
    config = job.build_config()
    started = time.perf_counter()
    try:
        if job.counts_threshold is not None:
            set_default_counts_threshold(job.counts_threshold)
        table = spec.run_fn(config, random_state=job.seed)
    finally:
        if job.counts_threshold is not None:
            set_default_counts_threshold(None)
    elapsed = time.perf_counter() - started
    table.provenance = {
        **job.identity(),
        "full": job.full,
        "seconds": round(elapsed, 4),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return table


@dataclass
class ExperimentRunReport:
    """What ``run_all`` did for one experiment (at one base seed).

    ``status`` is ``"ran"``, ``"cached"``, ``"skipped"`` (engine
    unsupported), or ``"failed"`` (the job raised on both attempts; the
    report then carries the structured failure table and the error text).
    """

    experiment_id: str
    status: str  # "ran" | "cached" | "skipped" | "failed"
    seconds: float
    table: Optional[ExperimentTable] = field(repr=False, default=None)
    base_seed: int = 0
    error: Optional[str] = None


def job_seed(base_seed: int, spec: ExperimentSpec) -> int:
    """Deterministic per-experiment seed, independent of the run subset.

    Derives a child seed from the base via the spawned-generator discipline
    (:func:`~repro.utils.rng.derive_seed`), keyed on the experiment's
    numeric id — so E7 gets the same seed whether ``run_all`` executes two
    experiments or all fourteen, serially or in parallel.
    """
    return derive_seed(int(base_seed), spec.index)


def _failure_table(
    job: ExperimentJob, error: BaseException, attempts: int
) -> ExperimentTable:
    """A structured failure entry standing in for a crashed job's table.

    One row naming the exception, the attempt count, and the job knobs, so
    a batch artifact that contains failures is still complete and
    self-describing.  Failure tables are deliberately *not* persisted to
    the result store — a later ``resume`` run retries the job instead of
    serving the crash from cache.
    """
    spec = get_spec(job.experiment_id)
    table = ExperimentTable(
        experiment_id=job.experiment_id,
        title=spec.title,
        paper_claim=spec.paper_claim,
    )
    table.add_record(
        status="failed",
        error_type=type(error).__name__,
        error=str(error) or repr(error),
        attempts=attempts,
        seed=job.seed,
        engine=job.engine,
        full=job.full,
    )
    table.add_note(
        f"the job raised on all {attempts} attempts; the sweep continued "
        "without it (see the error column)"
    )
    table.provenance = {
        **job.identity(),
        "full": job.full,
        "failed": True,
        "error": repr(error),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return table


#: One executed job: ``(table, status, error)`` with status ``"ran"`` or
#: ``"failed"`` (error text set only on failure).
_JobOutcome = tuple


def _retry_once(
    job: ExperimentJob,
    first_error: BaseException,
    log: Callable[[str], None],
) -> _JobOutcome:
    """The single in-process retry after a failed first attempt."""
    log(
        f"{job.experiment_id}: attempt 1 failed ({first_error!r}); "
        "retrying once"
    )
    try:
        return run_experiment_job(job), "ran", None
    except Exception as error:
        log(f"{job.experiment_id}: failed after retry ({error!r})")
        return _failure_table(job, error, attempts=2), "failed", repr(error)


def _run_jobs_serial(
    jobs_list: Sequence[ExperimentJob],
    log: Callable[[str], None],
) -> List[_JobOutcome]:
    outcomes: List[_JobOutcome] = []
    for job in jobs_list:
        try:
            outcomes.append((run_experiment_job(job), "ran", None))
        except Exception as error:
            outcomes.append(_retry_once(job, error, log))
    return outcomes


def _pool_probe() -> bool:  # pragma: no cover - trivial worker payload
    return True


def _run_jobs_parallel(
    jobs_list: Sequence[ExperimentJob],
    jobs: int,
    log: Callable[[str], None],
) -> List[_JobOutcome]:
    """Fan jobs out over a process pool; fall back to serial on failure.

    Only *pool* failures (platforms without working worker processes —
    sandboxes, missing semaphores) trigger the serial fallback; a no-op
    probe task forces worker spawn before any real job is dispatched.
    Jobs are dispatched as individual futures, so one crashing job fails
    only its own future: the job is retried once in-process, and if it
    fails again a structured failure entry takes its place while the
    other jobs complete normally.  (A worker that dies outright breaks
    the pool and fails its siblings' futures too — each of those is then
    retried in-process the same way, so even a hard crash cannot kill
    the sweep.)
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
        pool.submit(_pool_probe).result()
    except Exception as error:
        log(
            f"process pool unavailable ({error!r}); "
            "falling back to serial execution"
        )
        return _run_jobs_serial(jobs_list, log)
    outcomes: List[_JobOutcome] = []
    with pool:
        futures = [pool.submit(run_experiment_job, job) for job in jobs_list]
        for job, future in zip(jobs_list, futures):
            try:
                outcomes.append((future.result(), "ran", None))
            except Exception as error:
                outcomes.append(_retry_once(job, error, log))
    return outcomes


def run_all(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    full: bool = False,
    engine: Optional[str] = None,
    counts_threshold: Optional[int] = None,
    store: Optional[Union[ResultStore, str, Path]] = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> List[ExperimentRunReport]:
    """Run a set of registered experiments, optionally in parallel.

    Parameters
    ----------
    experiment_ids:
        The experiments to run (default: every registered spec, in numeric
        order).
    jobs:
        Worker processes; ``1`` (default) runs serially in-process.
        Parallel results are identical to serial results because every
        job's seed derives from its identity, not from execution order.
    seed:
        Base seed; each experiment derives its own child seed from it.
    seeds:
        Optional replication sweep: run every experiment once per base seed
        (overrides ``seed``).  One report per ``(seed, experiment)`` pair,
        seed-major, and every pair is its own store entry — the way to
        accumulate statistics across independent repetitions.
    full:
        Use the ``full()`` configurations instead of ``quick()``.
    engine:
        Optional trial-engine override applied to every experiment that
        supports it; experiments that do not support the requested engine
        are reported as ``"skipped"`` (with a log line naming their
        supported engines) instead of failing the whole sweep.
    counts_threshold:
        The ``"auto"`` engine's counts switch-over population size.  Part
        of every job (and hence of the store identity and the worker-side
        execution), so cached artifacts never mix thresholds.
    store:
        A :class:`ResultStore` (or directory path) to persist result
        artifacts into; ``None`` disables persistence (and ``resume``).
    resume:
        Skip experiments whose identity already has a stored table and
        report them as ``"cached"``.
    log:
        Progress callback (one line per event); ``None`` silences it.

    Returns
    -------
    list of ExperimentRunReport
        One report per requested ``(seed, experiment)`` pair, in request
        order, each carrying the (fresh or cached) :class:`ExperimentTable`.
        A job that raises on both attempts is reported as ``"failed"``
        with a structured failure table (not persisted to the store) —
        the sweep itself always completes.
    """
    if log is None:
        def log(message: str) -> None:  # noqa: ANN001 - simple sink
            pass
    if experiment_ids is None:
        experiment_ids = registered_ids()
    if seeds is None:
        seeds = (int(seed),)
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    if resume and store is None:
        raise ValueError("resume=True requires a result store")

    request = [
        (int(base_seed), experiment_id)
        for base_seed in seeds
        for experiment_id in experiment_ids
    ]
    jobs_by_key: Dict[tuple, ExperimentJob] = {}
    reports: Dict[tuple, ExperimentRunReport] = {}
    for base_seed, experiment_id in request:
        spec = get_spec(experiment_id)
        if engine is not None and not spec.supports_engine(engine):
            log(
                f"{experiment_id}: skipped — engine {engine!r} unsupported "
                f"(supported: {', '.join(spec.supported_engines)})"
            )
            reports[(base_seed, experiment_id)] = ExperimentRunReport(
                experiment_id=experiment_id,
                status="skipped",
                seconds=0.0,
                base_seed=base_seed,
            )
            continue
        jobs_by_key[(base_seed, experiment_id)] = ExperimentJob(
            experiment_id=experiment_id,
            full=full,
            seed=job_seed(base_seed, spec),
            engine=engine,
            counts_threshold=counts_threshold,
        )

    pending: List[tuple] = []
    for key, job in jobs_by_key.items():
        cached = store.get(job) if (resume and store is not None) else None
        if cached is not None:
            log(
                f"{key[1]}: cached ({store.key_of(job.identity())[:16]})"
            )
            reports[key] = ExperimentRunReport(
                experiment_id=key[1],
                status="cached",
                seconds=0.0,
                table=cached,
                base_seed=key[0],
            )
        else:
            pending.append(key)

    if pending:
        log(
            f"running {len(pending)} experiment job(s) with "
            f"{'1 process' if jobs <= 1 else f'{jobs} processes'}"
        )
        pending_jobs = [jobs_by_key[key] for key in pending]
        if jobs <= 1 or len(pending_jobs) == 1:
            outcomes = _run_jobs_serial(pending_jobs, log)
        else:
            outcomes = _run_jobs_parallel(pending_jobs, jobs, log)
        for key, job, (table, status, error) in zip(
            pending, pending_jobs, outcomes
        ):
            seconds = 0.0
            if status == "ran":
                if store is not None:
                    store.put(job, table)
                seconds = float(table.provenance.get("seconds", 0.0))
                log(f"{job.experiment_id}: ran in {seconds:.2f}s")
            reports[key] = ExperimentRunReport(
                experiment_id=job.experiment_id,
                status=status,
                seconds=seconds,
                table=table,
                base_seed=key[0],
                error=error,
            )

    return [reports[key] for key in request]
