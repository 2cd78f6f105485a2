"""Declarative experiment specifications and the module-decorator registry.

Every reproduced statement of the paper is described by one
:class:`ExperimentSpec`: its id (``"E1"`` … ``"E15"``), the paper claim it
reproduces, zero-argument constructors for its quick and full
configurations, the ``run`` function, and — crucially for the orchestration
layer — the set of *trial engines* the experiment supports.  Experiment
modules register themselves at import time with the
:func:`register_experiment` decorator, so the registry replaces the
hand-maintained experiment dictionary the CLI used to carry:

    @register_experiment(
        experiment_id="E1",
        description="Theorem 1: rumor-spreading scaling",
        title="...",
        paper_claim="...",
        config_cls=RumorScalingConfig,
        supported_engines=("batched", "sequential", "counts"),
    )
    def run(config=None, random_state=0) -> ExperimentTable: ...

``supported_engines`` names the concrete engine tiers of
:data:`~repro.sim.ENGINE_TIERS` the experiment can route its repeated
trials through.  Experiments whose measurement is inherently
per-node or analytic (memory traces, exact probability computations,
topology sweeps over per-node graph engines) declare
``supported_engines=("sequential",)``; the CLI rejects any other request
with an explicit error instead of silently ignoring it.  The pseudo-engine
``"auto"`` is accepted exactly when the spec supports both engines it
arbitrates between (``"batched"`` and ``"counts"``).

The registry is the single source of truth for the CLI
(``list-experiments``, ``run-experiment``, ``run-all``) and for the
:mod:`~repro.experiments.orchestrator`'s content-keyed result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.results import ExperimentTable
from repro.sim import ENGINE_TIERS

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "get_spec",
    "all_specs",
    "registered_ids",
    "UnsupportedEngineError",
]


class UnsupportedEngineError(ValueError):
    """Raised when an experiment is asked to run on an engine it lacks."""


@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative description of one registered experiment.

    Attributes
    ----------
    experiment_id:
        The experiment index id (``"E1"`` … ``"E15"``).
    title:
        Human-readable one-line title (what the result table is about).
    paper_claim:
        The paper statement (theorem/lemma/claim) the experiment reproduces.
    description:
        The short index line shown by ``list-experiments``.
    quick_config, full_config:
        Zero-argument callables building the quick/full configuration, or
        ``None`` when the experiment takes no configuration object.
    run_fn:
        ``run(config, random_state) -> ExperimentTable``.
    supported_engines:
        The concrete engine tiers (subset of :data:`~repro.sim.ENGINE_TIERS`)
        the experiment can execute its repeated trials on; ``"analytic"``
        marks experiments that compute exact probabilities through
        ``repro.sim`` instead of sampling trials.
    config_cls:
        The configuration dataclass (``None`` for config-free experiments);
        kept so callers can build custom configurations programmatically.
    module_name:
        The defining module's import path (used by the orchestrator's
        code-version fingerprint).
    """

    experiment_id: str
    title: str
    paper_claim: str
    description: str
    quick_config: Optional[Callable[[], Any]]
    full_config: Optional[Callable[[], Any]]
    run_fn: Callable[..., ExperimentTable]
    supported_engines: Tuple[str, ...]
    config_cls: Optional[type] = None
    module_name: str = ""

    @property
    def index(self) -> int:
        """The numeric part of the experiment id (for stable ordering)."""
        return int(self.experiment_id[1:])

    def supports_engine(self, engine: str) -> bool:
        """``True`` iff ``engine`` is a valid trial engine for this spec.

        Concrete engines must be declared; the ``"auto"`` choice is valid
        exactly when the spec supports both engines auto arbitrates
        between (``"batched"`` and ``"counts"``).
        """
        if engine == "auto":
            return {"batched", "counts"} <= set(self.supported_engines)
        return engine in self.supported_engines

    def validate_engine(self, engine: str) -> str:
        """Return ``engine`` if supported, else raise a clear error."""
        if self.supports_engine(engine):
            return engine
        raise UnsupportedEngineError(
            f"experiment {self.experiment_id} does not support "
            f"--engine {engine}; supported engines: "
            f"{', '.join(self.supported_engines)}"
        )

    def build_config(self, full: bool = False) -> Any:
        """The quick (default) or full configuration, ``None`` if config-free."""
        constructor = self.full_config if full else self.quick_config
        return constructor() if constructor is not None else None

    def run(self, config: Any = None, random_state: Any = 0) -> ExperimentTable:
        """Execute the experiment (quick configuration when ``config=None``)."""
        return self.run_fn(config, random_state=random_state)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(
    *,
    experiment_id: str,
    description: str,
    title: str,
    paper_claim: str,
    supported_engines: Tuple[str, ...],
    config_cls: Optional[type] = None,
) -> Callable[[Callable[..., ExperimentTable]], Callable[..., ExperimentTable]]:
    """Class the decorated ``run`` function under ``experiment_id``.

    The decorator validates the declaration (id shape, engine names, the
    ``quick``/``full`` constructors of ``config_cls``) and stores an
    :class:`ExperimentSpec` in the module-level registry.  Re-registering an
    id replaces the previous spec (so ``importlib.reload`` of an experiment
    module keeps working).
    """
    if not experiment_id.startswith("E") or not experiment_id[1:].isdigit():
        raise ValueError(
            f"experiment_id must look like 'E<number>', got {experiment_id!r}"
        )
    if not supported_engines:
        raise ValueError(
            f"{experiment_id}: supported_engines must name at least one of "
            f"{ENGINE_TIERS}"
        )
    unknown = [e for e in supported_engines if e not in ENGINE_TIERS]
    if unknown:
        raise ValueError(
            f"{experiment_id}: unknown engines {unknown}; valid engines are "
            f"{ENGINE_TIERS}"
        )
    if config_cls is not None and not (
        callable(getattr(config_cls, "quick", None))
        and callable(getattr(config_cls, "full", None))
    ):
        raise ValueError(
            f"{experiment_id}: config_cls must provide quick() and full() "
            "constructors"
        )

    def decorator(run_fn: Callable[..., ExperimentTable]):
        spec = ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            paper_claim=paper_claim,
            description=description,
            quick_config=(
                config_cls.quick if config_cls is not None else None
            ),
            full_config=(
                config_cls.full if config_cls is not None else None
            ),
            run_fn=run_fn,
            supported_engines=tuple(supported_engines),
            config_cls=config_cls,
            module_name=run_fn.__module__,
        )
        _REGISTRY[experiment_id] = spec
        return run_fn

    return decorator


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The registered spec for ``experiment_id`` (KeyError with a hint if absent)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(registered_ids())
        raise KeyError(
            f"no experiment registered under {experiment_id!r}; known "
            f"experiments: {known}"
        ) from None


def all_specs() -> List[ExperimentSpec]:
    """Every registered spec, ordered by numeric experiment id."""
    return sorted(_REGISTRY.values(), key=lambda spec: spec.index)


def registered_ids() -> List[str]:
    """The registered experiment ids, ordered numerically."""
    return [spec.experiment_id for spec in all_specs()]
