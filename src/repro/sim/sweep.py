"""``simulate_sweep(ScenarioGrid(...)) -> SweepResult`` — batched grids.

A :class:`ScenarioGrid` is a base :class:`~repro.sim.scenario.Scenario`
plus an ordered mapping of swept axes (``epsilon``, ``bias`` / ``shares``,
``sample_size``, ``rule``, ``num_nodes``, ...).  Expanding it yields one
scenario per grid point, each with a per-point seed derived from the base
seed (``derive_seed(base.seed, index)``) so the points are statistically
independent — exactly the scenario list a serial sweep loop would build.

:func:`simulate_sweep` executes the whole grid, routing every point that
resolves to the counts tier into one *heterogeneous* batch — the entire
grid advances as a single ``(sum of trials, k)`` counts computation with
per-row parameters (see
:func:`~repro.core.protocol.run_heterogeneous_counts_protocol` and
:func:`~repro.dynamics.base.run_heterogeneous_counts_dynamics`) — while
points on other tiers (sequential topologies, batched, analytic) fall
back to per-point :func:`~repro.sim.facade.simulate` calls.  Per-point
results are **bitwise identical** to the serial loop
``[simulate(s) for s in grid.scenarios()]`` under the same seeds; only
provenance wall times differ.

An optional :class:`~repro.utils.artifacts.ResultStore` makes
sweeps incremental: cached grid points are sliced out before the batch
runs and merged back afterwards, and freshly computed points are stored
under an identity keyed by the scenario dictionary and the sim-layer code
version.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.protocol import run_heterogeneous_counts_protocol
from repro.dynamics.base import (
    CountsDynamicsTask,
    run_heterogeneous_counts_dynamics,
)
from repro.sim.engines import build_dynamics
from repro.network.pull_model import vote_law_cache_info
from repro.sim.facade import (
    _cache_delta,
    _counts_protocol_task,
    _resolve_engine,
    _stamp_provenance,
    sim_code_version,
    simulate,
)
from repro.sim.result import SimulationResult
from repro.sim.scenario import Scenario
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.utils.artifacts import ResultStore

__all__ = ["ScenarioGrid", "SweepResult", "simulate_sweep"]

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))


@dataclass(frozen=True)
class ScenarioGrid:
    """A base scenario plus ordered swept axes — one scenario per point.

    ``axes`` maps scenario field names to the values they sweep over; the
    grid is their Cartesian product in insertion order (the last axis
    varies fastest, like nested loops).  Point ``i`` is the base scenario
    with that point's overrides applied and ``seed`` replaced by
    ``derive_seed(base.seed, i)``; sweeping ``"seed"`` itself disables the
    derivation and uses the swept values verbatim.
    """

    base: Scenario
    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("axes must name at least one swept field")
        normalized: Dict[str, Tuple[Any, ...]] = {}
        for name, values in self.axes.items():
            if name not in _SCENARIO_FIELDS:
                raise ValueError(
                    f"unknown sweep axis {name!r}; must be a Scenario "
                    f"field (one of {sorted(_SCENARIO_FIELDS)})"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")
            normalized[name] = values
        object.__setattr__(self, "axes", normalized)

    @property
    def axis_names(self) -> Tuple[str, ...]:
        """The swept field names, in axis (outer-to-inner) order."""
        return tuple(self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per axis, in axis order."""
        return tuple(len(values) for values in self.axes.values())

    @property
    def size(self) -> int:
        """Total number of grid points."""
        size = 1
        for extent in self.shape:
            size *= extent
        return size

    def point_overrides(self, index: int) -> Dict[str, Any]:
        """The axis-value overrides at flat grid ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"grid index {index} out of range for {self.size} points"
            )
        overrides: Dict[str, Any] = {}
        remainder = index
        for name, extent in zip(
            reversed(self.axis_names), reversed(self.shape)
        ):
            remainder, position = divmod(remainder, extent)
            overrides[name] = self.axes[name][position]
        return {name: overrides[name] for name in self.axis_names}

    def points(self) -> List[Dict[str, Any]]:
        """Override dictionaries for every point, in flat grid order."""
        combos = itertools.product(*self.axes.values())
        return [dict(zip(self.axis_names, combo)) for combo in combos]

    def point_seed(self, index: int) -> Any:
        """The seed point ``index`` runs under (derived unless swept)."""
        if "seed" in self.axes:
            return self.point_overrides(index)["seed"]
        return derive_seed(self.base.seed, index)

    def scenario(self, index: int) -> Scenario:
        """The fully expanded scenario at flat grid ``index``."""
        overrides = self.point_overrides(index)
        if "seed" not in self.axes:
            overrides["seed"] = derive_seed(self.base.seed, index)
        return dataclasses.replace(self.base, **overrides)

    def scenarios(self) -> List[Scenario]:
        """Every expanded scenario, in flat grid order.

        ``[simulate(s) for s in grid.scenarios()]`` is the serial
        reference loop :func:`simulate_sweep` is bitwise equivalent to.
        """
        return [self.scenario(index) for index in range(self.size)]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable description (base scenario + axis values)."""
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioGrid":
        """Rebuild a grid from :meth:`to_dict` output (exact round trip).

        Axis value *order* is preserved, so the reconstructed grid
        enumerates points (and derives per-point seeds) identically to
        the original.
        """
        return cls(
            base=Scenario.from_dict(payload["base"]),
            axes={
                name: tuple(values)
                for name, values in payload["axes"].items()
            },
        )


@dataclass
class SweepResult:
    """Per-point :class:`SimulationResult`\\ s of one grid sweep.

    Indexing (``sweep[i]``) returns the i-th point's result exactly as a
    serial ``simulate(grid.scenario(i))`` call would have produced it
    (modulo provenance wall time); :meth:`point` pairs it with the axis
    overrides that generated it.
    """

    grid: ScenarioGrid
    results: List[SimulationResult]
    engines: List[str]
    from_cache: List[bool]
    wall_time_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self.results[index]

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    @property
    def cache_hits(self) -> int:
        """How many grid points were served from the result store."""
        return sum(self.from_cache)

    def point(self, index: int) -> Tuple[Dict[str, Any], SimulationResult]:
        """``(axis overrides, result)`` for flat grid ``index``."""
        return self.grid.point_overrides(index), self.results[index]

    def success_rates(self) -> np.ndarray:
        """Per-point success rate, shaped like the grid axes."""
        rates = np.array(
            [float(np.mean(result.successes)) for result in self.results]
        )
        return rates.reshape(self.grid.shape)

    def summary(self) -> List[Dict[str, Any]]:
        """One plain dictionary per point: axis values + headline stats."""
        rows = []
        for index, result in enumerate(self.results):
            row = dict(self.grid.point_overrides(index))
            row.update(
                seed=self.grid.point_seed(index),
                engine=self.engines[index],
                from_cache=self.from_cache[index],
                success_rate=float(np.mean(result.successes)),
                mean_rounds=float(np.mean(result.rounds)),
            )
            rows.append(row)
        return rows


def _point_identity(scenario: Scenario, code_version: str) -> Dict[str, Any]:
    """The store identity of one grid point (grid-independent on purpose:
    a point cached by one sweep is reusable by any sweep or serial run
    that produces the same scenario)."""
    return {"scenario": scenario.to_dict(), "code_version": code_version}


def _dynamics_task(scenario: Scenario) -> CountsDynamicsTask:
    """The heterogeneous-batch task mirroring ``_dynamics_ensemble``."""
    dynamics = build_dynamics(
        "counts",
        scenario.rule,
        scenario.num_nodes,
        scenario.build_noise(),
        scenario.seed,
        sample_size=scenario.sample_size,
        epsilon=(
            scenario.epsilon
            if scenario.rule == "approximate-consensus"
            else None
        ),
    )
    return CountsDynamicsTask(
        dynamics=dynamics,
        initial_state=scenario.initial_counts_state(),
        max_rounds=scenario.max_rounds,
        num_trials=scenario.num_trials,
        target_opinion=scenario.target_opinion(),
        stop_at_consensus=scenario.stop_at_consensus,
        record_history=scenario.record_trajectories,
    )


def simulate_sweep(
    grid: ScenarioGrid,
    *,
    store: Optional["ResultStore"] = None,
    store_label: str = "sweep",
    draw_mode: str = "per-trial",
) -> SweepResult:
    """Execute every point of ``grid``, batching the counts tier.

    Points resolving to the counts tier are fused into heterogeneous
    batches — protocol points grouped by opinion count ``k`` (the merged
    state shares its opinion axis), dynamics points merged per rule
    family into one stacked counts ensemble that advances every row in
    the same vectorized round loop — and evolved with per-row
    parameters; every other point runs through a per-point
    :func:`simulate` call.  Results slot back into
    flat grid order and are bitwise identical to the serial loop
    ``[simulate(s) for s in grid.scenarios()]``.

    With a ``store`` (any object with the
    :class:`~repro.utils.artifacts.ResultStore` ``fetch`` /
    ``store`` interface), cached points are sliced out before the batch
    runs and merged back after; fresh points are stored on completion.

    ``draw_mode="batched"`` opts the fused counts-protocol batches into
    shared-stream column-wise draws (see
    :func:`~repro.core.protocol.run_heterogeneous_counts_protocol`):
    distributionally identical to — but no longer bitwise identical with —
    the serial loop, and markedly faster when per-row generator calls
    dominate.  Batched results are stamped with
    ``provenance["rng_draw_order"] = "batched"`` and cached under a
    distinct store identity so they never masquerade as per-trial runs.
    The mode touches only the counts-protocol points: counts-dynamics and
    serial points run per-trial in either mode, under the per-trial
    identity (fused dynamics points are stamped
    ``rng_draw_order = "per-trial"``).
    """
    if draw_mode not in ("per-trial", "batched"):
        raise ValueError(
            f"draw_mode must be 'per-trial' or 'batched', got {draw_mode!r}"
        )
    started = time.perf_counter()
    scenarios = grid.scenarios()
    for scenario in scenarios:
        scenario.validate()
    size = grid.size
    code_version = sim_code_version()
    results: List[Optional[SimulationResult]] = [None] * size
    engines: List[Optional[str]] = [None] * size
    from_cache = [False] * size

    resolved = [_resolve_engine(scenario)[0] for scenario in scenarios]
    counts_protocol = [
        engine == "counts" and scenario.workload in ("rumor", "plurality")
        for engine, scenario in zip(resolved, scenarios)
    ]
    identities: List[Optional[Dict[str, Any]]] = [None] * size
    keys: List[Optional[str]] = [None] * size
    if store is not None:
        for index, scenario in enumerate(scenarios):
            identities[index] = _point_identity(scenario, code_version)
            if draw_mode != "per-trial" and counts_protocol[index]:
                identities[index]["draw_mode"] = draw_mode
            keys[index] = store.key_of(identities[index])
            payload = store.fetch(
                store_label, identities[index], key=keys[index]
            )
            if payload is not None:
                cached = SimulationResult.from_json(payload)
                results[index] = cached
                engines[index] = cached.provenance.get("engine", "unknown")
                from_cache[index] = True

    pending = [index for index in range(size) if results[index] is None]
    protocol_groups: Dict[int, List[int]] = {}
    dynamics_batch: List[int] = []
    serial_points: List[int] = []
    for index in pending:
        scenario = scenarios[index]
        engines[index] = resolved[index]
        if counts_protocol[index]:
            protocol_groups.setdefault(scenario.num_opinions, []).append(index)
        elif resolved[index] == "counts" and scenario.workload == "dynamics":
            dynamics_batch.append(index)
        else:
            serial_points.append(index)

    for _, indices in sorted(protocol_groups.items()):
        batch_started = time.perf_counter()
        cache_before = vote_law_cache_info()
        tasks = [
            _counts_protocol_task(scenarios[index], scenarios[index].build_noise())
            for index in indices
        ]
        batch_results = run_heterogeneous_counts_protocol(
            tasks, draw_mode=draw_mode
        )
        batch_elapsed = time.perf_counter() - batch_started
        batch_cache = _cache_delta(cache_before)
        for index, ensemble_result in zip(indices, batch_results):
            scenario = scenarios[index]
            result = SimulationResult.from_ensemble_result(
                ensemble_result, workload=scenario.workload, engine="counts"
            )
            # wall_time_seconds is the batch's time: per-point
            # attribution is meaningless inside one merged computation.
            _stamp_provenance(result, scenario, "counts", batch_elapsed)
            result.provenance["rng_draw_order"] = draw_mode
            # Batch-level counters, like wall time: per-point attribution
            # is meaningless inside one merged computation.
            result.provenance["vote_law_cache"] = batch_cache
            results[index] = result

    if dynamics_batch:
        batch_started = time.perf_counter()
        tasks = [_dynamics_task(scenarios[index]) for index in dynamics_batch]
        batch_results = run_heterogeneous_counts_dynamics(tasks)
        batch_elapsed = time.perf_counter() - batch_started
        for index, dynamics_result in zip(dynamics_batch, batch_results):
            scenario = scenarios[index]
            result = SimulationResult.from_ensemble_dynamics_result(
                dynamics_result, engine="counts"
            )
            _stamp_provenance(result, scenario, "counts", batch_elapsed)
            result.provenance["rng_draw_order"] = "per-trial"
            results[index] = result

    for index in serial_points:
        results[index] = simulate(scenarios[index])

    if store is not None:
        for index in pending:
            store.store(
                store_label,
                identities[index],
                results[index].to_json_dict(),
                key=keys[index],
            )

    elapsed = time.perf_counter() - started
    for index, result in enumerate(results):
        result.provenance["sweep"] = {
            "grid_index": index,
            "grid_size": size,
            "axes": {
                name: _jsonable(value)
                for name, value in grid.point_overrides(index).items()
            },
            "from_cache": from_cache[index],
        }
    return SweepResult(
        grid=grid,
        results=results,
        engines=engines,
        from_cache=from_cache,
        wall_time_seconds=round(elapsed, 6),
    )


def _jsonable(value: Any) -> Any:
    """Axis values coerced for the provenance dictionary."""
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value
