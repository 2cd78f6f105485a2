"""Tests for the orchestration layer (repro.experiments.orchestrator).

The fast analytic experiments (E5, E10, E11) serve as the workload: the
properties under test — content-keyed caching, resume semantics, and the
parallel-equals-serial guarantee — are independent of experiment cost.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.orchestrator import (
    ExperimentJob,
    ResultStore,
    config_fingerprint,
    experiment_code_version,
    job_seed,
    run_all,
    run_experiment_job,
)
from repro.experiments.spec import get_spec

FAST_IDS = ["E5", "E10", "E11"]


def _always_crash(config=None, random_state=0):
    """A deliberately crashing experiment body (module-level: picklable)."""
    raise RuntimeError("injected worker crash")


def _patch_run_fn(monkeypatch, experiment_id, run_fn):
    """Swap one registered experiment's run function (registry-scoped)."""
    from repro.experiments import spec as spec_module

    broken = dataclasses.replace(get_spec(experiment_id), run_fn=run_fn)
    monkeypatch.setitem(spec_module._REGISTRY, experiment_id, broken)


class TestResultStoreKeys:
    def test_identical_identity_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        job = ExperimentJob("E11", seed=3)
        table = run_experiment_job(job)
        store.put(job, table)
        assert store.has(job)
        cached = store.get(ExperimentJob("E11", seed=3))
        assert cached.records == table.records
        assert cached.notes == table.notes
        assert cached.provenance == table.provenance

    def test_changed_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        job = ExperimentJob("E11", seed=3)
        store.put(job, run_experiment_job(job))
        assert not store.has(ExperimentJob("E11", seed=4))

    def test_changed_engine_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        job = ExperimentJob("E3", seed=0, engine="batched")
        identity = job.identity()
        other = ExperimentJob("E3", seed=0, engine="counts").identity()
        assert ResultStore.key_of(identity) != ResultStore.key_of(other)

    def test_changed_counts_threshold_misses(self):
        """--engine auto resolves differently per threshold, so the
        threshold must be part of the content key."""
        low = ExperimentJob("E1", engine="auto", counts_threshold=1000)
        high = ExperimentJob("E1", engine="auto", counts_threshold=2000)
        assert ResultStore.key_of(low.identity()) != ResultStore.key_of(
            high.identity()
        )

    def test_counts_threshold_applies_during_the_job_only(self):
        from repro.sim import resolve_trial_engine

        run_experiment_job(
            ExperimentJob("E3", engine="auto", counts_threshold=100)
        )
        # The process-wide default is restored after the job.
        assert resolve_trial_engine("auto", 200) == "batched"

    def test_changed_config_misses(self, tmp_path):
        spec = get_spec("E11")
        quick = config_fingerprint(spec.build_config(full=False))
        full = config_fingerprint(spec.build_config(full=True))
        key_quick = ResultStore.key_of({"config": quick})
        key_full = ResultStore.key_of({"config": full})
        assert key_quick != key_full

    def test_config_fingerprint_is_sequence_type_insensitive(self):
        spec = get_spec("E1")
        config_tuple = spec.build_config()
        config_list = dataclasses.replace(
            config_tuple,
            num_nodes_grid=list(config_tuple.num_nodes_grid),
            epsilon_grid=list(config_tuple.epsilon_grid),
        )
        assert config_fingerprint(config_tuple) == config_fingerprint(
            config_list
        )

    def test_code_version_is_stable_and_short(self):
        spec = get_spec("E5")
        assert experiment_code_version(spec) == experiment_code_version(spec)
        assert len(experiment_code_version(spec)) == 16

    def test_corrupt_store_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = ExperimentJob("E11", seed=0)
        path = store.put(job, run_experiment_job(job))
        path.write_text("{not json")
        assert store.get(job) is None

    def test_store_files_are_valid_json_with_identity(self, tmp_path):
        store = ResultStore(tmp_path)
        job = ExperimentJob("E11", seed=0)
        path = store.put(job, run_experiment_job(job))
        document = json.loads(path.read_text())
        assert document["identity"]["experiment_id"] == "E11"
        assert document["payload"]["experiment_id"] == "E11"


class TestRunExperimentJob:
    def test_provenance_is_stamped(self):
        table = run_experiment_job(ExperimentJob("E10", seed=1))
        assert table.provenance["experiment_id"] == "E10"
        assert table.provenance["seed"] == 1
        assert "code_version" in table.provenance
        assert "recorded_at" in table.provenance

    def test_unsupported_engine_rejected(self):
        with pytest.raises(ValueError, match="supported engines"):
            run_experiment_job(ExperimentJob("E11", engine="counts"))


class TestRunAll:
    def test_serial_and_parallel_records_identical(self, tmp_path):
        serial = run_all(FAST_IDS, jobs=1, seed=0, store=tmp_path / "a")
        parallel = run_all(FAST_IDS, jobs=2, seed=0, store=tmp_path / "b")
        for one, two in zip(serial, parallel):
            assert one.status == two.status == "ran"
            assert one.table.records == two.table.records
            assert one.table.notes == two.table.notes

    def test_resume_reports_cached_without_recomputing(self, tmp_path):
        first = run_all(FAST_IDS, jobs=1, seed=0, store=tmp_path)
        second = run_all(
            FAST_IDS, jobs=1, seed=0, store=tmp_path, resume=True
        )
        assert [report.status for report in second] == ["cached"] * 3
        for one, two in zip(first, second):
            assert one.table.records == two.table.records

    def test_resume_reruns_on_seed_change(self, tmp_path):
        run_all(["E11"], seed=0, store=tmp_path)
        reports = run_all(["E11"], seed=1, store=tmp_path, resume=True)
        assert reports[0].status == "ran"

    def test_seed_derivation_is_subset_independent(self, tmp_path):
        alone = run_all(["E10"], seed=0, store=tmp_path / "a")
        grouped = run_all(FAST_IDS, seed=0, store=tmp_path / "b")
        grouped_e10 = [
            report for report in grouped if report.experiment_id == "E10"
        ][0]
        assert alone[0].table.records == grouped_e10.table.records

    def test_per_experiment_seeds_differ(self):
        seeds = {job_seed(0, get_spec(i)) for i in FAST_IDS}
        assert len(seeds) == 3

    def test_unsupported_engine_is_skipped_not_fatal(self, tmp_path):
        reports = run_all(
            ["E10", "E11"], engine="counts", store=tmp_path
        )
        assert [report.status for report in reports] == ["skipped"] * 2
        assert all(report.table is None for report in reports)

    def test_no_store_runs_without_persistence(self, tmp_path):
        reports = run_all(["E11"], store=None)
        assert reports[0].status == "ran"
        with pytest.raises(ValueError, match="requires a result store"):
            run_all(["E11"], store=None, resume=True)

    def test_unknown_experiment_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_all(["E42"], store=tmp_path)

    def test_crashing_job_fails_structured_without_killing_the_sweep(
        self, tmp_path, monkeypatch
    ):
        calls = {"count": 0}

        def crash(config=None, random_state=0):
            calls["count"] += 1
            raise RuntimeError("injected worker crash")

        _patch_run_fn(monkeypatch, "E10", crash)
        reports = run_all(["E10", "E11"], jobs=1, seed=0, store=tmp_path)
        statuses = {r.experiment_id: r.status for r in reports}
        assert statuses == {"E10": "failed", "E11": "ran"}
        assert calls["count"] == 2  # first attempt + exactly one retry
        failed = next(r for r in reports if r.status == "failed")
        assert "injected worker crash" in failed.error
        record = failed.table.records[0]
        assert record["status"] == "failed"
        assert record["error_type"] == "RuntimeError"
        assert record["attempts"] == 2
        assert failed.table.provenance["failed"] is True

    def test_failure_tables_are_not_persisted(self, tmp_path, monkeypatch):
        _patch_run_fn(monkeypatch, "E10", _always_crash)
        run_all(["E10", "E11"], jobs=1, seed=0, store=tmp_path)
        # A resume pass serves E11 from cache but *retries* the crashed
        # E10 instead of serving the failure from the store.
        resumed = run_all(
            ["E10", "E11"], jobs=1, seed=0, store=tmp_path, resume=True
        )
        statuses = {r.experiment_id: r.status for r in resumed}
        assert statuses == {"E10": "failed", "E11": "cached"}

    def test_flaky_job_succeeds_on_the_retry(self, tmp_path, monkeypatch):
        baseline = run_all(["E10"], seed=0, store=tmp_path / "baseline")
        original = get_spec("E10").run_fn
        calls = {"count": 0}

        def flaky(config=None, random_state=0):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient glitch")
            return original(config, random_state=random_state)

        _patch_run_fn(monkeypatch, "E10", flaky)
        reports = run_all(["E10"], seed=0, store=tmp_path / "retry")
        assert reports[0].status == "ran"
        assert reports[0].error is None
        assert reports[0].table.records == baseline[0].table.records

    def test_parallel_crashed_worker_leaves_e15_table_complete(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE acceptance: E15 quick under run-all --jobs with a
        deliberately crashed sibling job still produces its full table."""
        _patch_run_fn(monkeypatch, "E10", _always_crash)
        reports = run_all(["E10", "E15"], jobs=2, seed=0, store=tmp_path)
        statuses = {r.experiment_id: r.status for r in reports}
        assert statuses == {"E10": "failed", "E15": "ran"}
        e15 = next(r for r in reports if r.experiment_id == "E15")
        # Complete grid: 2 workloads x (1 fault-free + 4 families x 2 f's).
        assert len(e15.table.records) == 18
        adaptive = [
            record for record in e15.table.records
            if record["adversary"] == "adaptive"
        ]
        # Every family, adaptive included, runs on the requested counts tier.
        assert adaptive and all(
            record["engine"] == "counts" for record in e15.table.records
        )
        assert "engine_degraded_reason" not in e15.table.records[0]

    def test_multi_seed_replication_sweep(self, tmp_path):
        reports = run_all(
            ["E10", "E11"], seeds=(0, 1), store=tmp_path
        )
        assert [
            (report.base_seed, report.experiment_id) for report in reports
        ] == [(0, "E10"), (0, "E11"), (1, "E10"), (1, "E11")]
        assert all(report.status == "ran" for report in reports)
        # Seed-0 rows match a plain single-seed run; E10's two seeds give
        # two distinct store entries, and a resume pass caches all four.
        single = run_all(["E10"], seed=0, store=tmp_path / "single")
        assert single[0].table.records == reports[0].table.records
        resumed = run_all(
            ["E10", "E11"], seeds=(0, 1), store=tmp_path, resume=True
        )
        assert [report.status for report in resumed] == ["cached"] * 4
