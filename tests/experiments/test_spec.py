"""Tests for the declarative experiment registry (repro.experiments.spec)."""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments  # noqa: F401  (import populates the registry)
from repro.experiments.spec import (
    ExperimentSpec,
    UnsupportedEngineError,
    all_specs,
    get_spec,
    register_experiment,
    registered_ids,
)
from repro.sim import ENGINE_TIERS


class TestRegistryCompleteness:
    def test_all_fifteen_experiments_registered(self):
        assert registered_ids() == [f"E{index}" for index in range(1, 16)]

    def test_specs_are_ordered_numerically(self):
        indices = [spec.index for spec in all_specs()]
        assert indices == sorted(indices)

    def test_every_spec_is_complete(self):
        for spec in all_specs():
            assert spec.title
            assert spec.paper_claim
            assert spec.description
            assert callable(spec.run_fn)
            assert spec.supported_engines
            # No experiment declares the analytic tier.
            assert set(spec.supported_engines) <= set(ENGINE_TIERS) - {"analytic"}
            assert spec.module_name.startswith("repro.experiments.exp_")

    def test_every_config_builds_quick_and_full(self):
        for spec in all_specs():
            quick = spec.build_config(full=False)
            full = spec.build_config(full=True)
            assert dataclasses.is_dataclass(quick)
            assert dataclasses.is_dataclass(full)
            assert type(quick) is type(full) is spec.config_cls

    def test_engine_aware_experiments_carry_trial_engine_field(self):
        """Every spec that supports a non-sequential engine must expose the
        choice through its config, so the CLI override has a place to land."""
        for spec in all_specs():
            if set(spec.supported_engines) != {"sequential"}:
                config = spec.build_config()
                assert hasattr(config, "trial_engine"), spec.experiment_id

    def test_sequential_is_always_supported(self):
        """The reference loop is the executable specification: every
        experiment must be runnable on it."""
        for spec in all_specs():
            assert "sequential" in spec.supported_engines, spec.experiment_id

    def test_get_spec_unknown_id_names_known_ones(self):
        with pytest.raises(KeyError, match="E1"):
            get_spec("E99")


class TestEngineSupport:
    def test_concrete_engine_support(self):
        spec = get_spec("E1")
        for engine in ("batched", "sequential", "counts", "auto"):
            assert spec.supports_engine(engine)

    def test_sequential_only_spec_rejects_other_engines(self):
        spec = get_spec("E11")
        assert spec.supports_engine("sequential")
        for engine in ("batched", "counts", "auto"):
            assert not spec.supports_engine(engine)

    def test_auto_requires_both_arbitrated_engines(self):
        """'auto' switches between batched and counts, so a spec missing
        either cannot honour it."""
        spec = get_spec("E8")  # batched + sequential, no counts
        assert spec.supports_engine("batched")
        assert not spec.supports_engine("auto")

    def test_validate_engine_error_names_supported_engines(self):
        spec = get_spec("E14")
        with pytest.raises(UnsupportedEngineError, match="sequential"):
            spec.validate_engine("counts")
        assert spec.validate_engine("sequential") == "sequential"


class TestRegisterExperimentValidation:
    def _run(self, config=None, random_state=0):
        raise AssertionError("never executed")

    def test_rejects_malformed_id(self):
        with pytest.raises(ValueError, match="E<number>"):
            register_experiment(
                experiment_id="X1",
                description="d",
                title="t",
                paper_claim="c",
                supported_engines=("sequential",),
            )(self._run)

    def test_rejects_unknown_engine_names(self):
        with pytest.raises(ValueError, match="unknown engines"):
            register_experiment(
                experiment_id="E99",
                description="d",
                title="t",
                paper_claim="c",
                supported_engines=("warp-drive",),
            )(self._run)

    def test_rejects_empty_engine_set(self):
        with pytest.raises(ValueError, match="at least one"):
            register_experiment(
                experiment_id="E99",
                description="d",
                title="t",
                paper_claim="c",
                supported_engines=(),
            )(self._run)

    def test_rejects_config_without_quick_and_full(self):
        class BadConfig:
            pass

        with pytest.raises(ValueError, match="quick"):
            register_experiment(
                experiment_id="E99",
                description="d",
                title="t",
                paper_claim="c",
                supported_engines=("sequential",),
                config_cls=BadConfig,
            )(self._run)

    def test_decorator_returns_the_function_and_registers(self):
        def run_fn(config=None, random_state=0):
            raise AssertionError("never executed")

        try:
            decorated = register_experiment(
                experiment_id="E99",
                description="a test-only spec",
                title="t",
                paper_claim="c",
                supported_engines=("sequential",),
            )(run_fn)
            assert decorated is run_fn
            spec = get_spec("E99")
            assert isinstance(spec, ExperimentSpec)
            assert spec.quick_config is None
            assert spec.build_config() is None
        finally:
            from repro.experiments import spec as spec_module

            spec_module._REGISTRY.pop("E99", None)
