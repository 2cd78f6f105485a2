"""Outside-in layer probes: wrap each layer's public functions, keep spans.

Every probe names its target by dotted path (``module:Qualified.name``) and
is resolved when the tracer is built.  A target that no longer exists (a later
refactor deleted or renamed it) is recorded as *absent* and skipped; it is
not an error, so the benchmark keeps running across engine rewrites.

A wrapper swaps the original out of every ``repro.*`` module namespace that
holds it (module-level ``from x import f`` copies included) or out of the
class that defines the method, and :meth:`Tracer.uninstall` puts it back,
so untraced calls run the unmodified program.

A layer's self time is its span minus the spans of the probes it calls.
Self times of all layers add up to the wall time of the outermost spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, target) pairs.  Several targets may feed one layer; nested spans
#: of one layer are fine, because self time subtracts every child span.
PROBES: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.facade:simulate"),
    ("sim", "repro.sim.sweep:simulate_sweep"),
    ("protocol.loop", "repro.core.protocol:CountsProtocol.run"),
    ("protocol.loop", "repro.core.protocol:run_heterogeneous_counts_protocol"),
    ("protocol.loop", "repro.core.stage1:CountsStage1Executor.run"),
    ("protocol.loop", "repro.core.stage2:CountsStage2Executor.run"),
    ("schedule.build", "repro.core.schedule:ProtocolSchedule.for_population"),
    ("dynamics.loop", "repro.dynamics.base:run_heterogeneous_counts_dynamics"),
    ("dynamics.loop", "repro.dynamics.base:EnsembleCountsDynamics.run"),
    ("delivery.recolor", "repro.network.balls_bins:CountsDeliveryModel.recolor"),
    ("delivery.recolor",
     "repro.network.balls_bins:HeterogeneousCountsDeliveryModel.recolor"),
    ("delivery.adopt",
     "repro.network.balls_bins:CountsDeliveryModel.sample_adoptions"),
    ("delivery.adopt",
     "repro.network.balls_bins:HeterogeneousCountsDeliveryModel.sample_adoptions"),
    ("delivery.update",
     "repro.network.balls_bins:CountsDeliveryModel.update_probability"),
    ("delivery.update",
     "repro.network.balls_bins:HeterogeneousCountsDeliveryModel.update_probability"),
    ("delivery.updaters", "repro.core.stage2:CountsStage2Executor._sample_updaters"),
    ("delivery.updaters",
     "repro.network.balls_bins:HeterogeneousCountsDeliveryModel.sample_updaters"),
    ("delivery.vote",
     "repro.network.balls_bins:CountsDeliveryModel.sample_vote_counts"),
    ("delivery.vote",
     "repro.network.balls_bins:HeterogeneousCountsDeliveryModel.sample_vote_counts"),
    ("vote_law.eval", "repro.network.pull_model:majority_vote_law"),
    ("vote_law.eval", "repro.network.pull_model:dense_majority_vote_law"),
    ("vote_law.table", "repro.network.pull_model:_majority_vote_table"),
    ("vote_law.table", "repro.network.pull_model:_dense_majority_vote_table"),
    ("faults.phase", "repro.faults.injection:FaultedPhaseSampler.phase_ball_deltas"),
    ("faults.phase",
     "repro.faults.delivery:FaultedCountsDeliveryModel.phase_histograms"),
    ("result.encode", "repro.sim.result:SimulationResult.to_json_dict"),
    ("result.decode", "repro.sim.result:SimulationResult.from_json"),
    ("store.put", "repro.experiments.orchestrator:ResultStore.store"),
    ("store.fetch", "repro.experiments.orchestrator:ResultStore.fetch"),
)

#: Layer -> per-layer time metric (its self time, in seconds).
TIME_METRICS = {
    "sim": "sim.self_s",
    "protocol.loop": "protocol.loop_self_s",
    "schedule.build": "schedule.build_s",
    "dynamics.loop": "dynamics.loop_self_s",
    "delivery.recolor": "delivery.recolor_s",
    "delivery.adopt": "delivery.adopt_s",
    "delivery.update": "delivery.update_s",
    "delivery.updaters": "delivery.updaters_s",
    "delivery.vote": "delivery.vote_self_s",
    "vote_law.eval": "vote_law.eval_s",
    "vote_law.table_build": "vote_law.table_build_s",
    "faults.phase": "faults.phase_s",
    "result.encode": "result.encode_s",
    "result.decode": "result.decode_s",
    "store.put": "store.put_s",
    "store.fetch": "store.fetch_s",
}

COUNT_METRICS = (
    "vote_law.calls",
    "vote_law.rows",
    "vote_law.table_builds",
    "vote_law.law_hits",
    "vote_law.law_misses",
    "delivery.chunk_voters",
    "sweep.serial_points",
    "store.bytes_written",
    "store.hits",
)

#: Counters read from the program's own cache statistics, by name.
CACHE_INFO = "repro.network.pull_model:vote_law_cache_info"


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:Qualified.name``.

    ``owner`` is the module or the class whose ``__dict__`` holds the
    attribute.  Raises ``LookupError`` when any part is missing.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise LookupError(f"{target}: {error}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no {part!r}")
    name = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return klass, name, klass.__dict__[name]
        raise LookupError(f"{target}: no {name!r}")
    if not hasattr(owner, name):
        raise LookupError(f"{target}: no {name!r}")
    return owner, name, getattr(owner, name)


class Tracer:
    """Span bookkeeping plus the install/uninstall of the probe wrappers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._cache_info: Optional[Callable[[], Dict[str, int]]] = None
        self.active = False
        self._build()

    # ------------------------------------------------------------ build #

    def _build(self) -> None:
        for layer, target in PROBES:
            try:
                owner, name, original = resolve(target)
            except LookupError:
                self.absent.append(target)
                continue
            if isinstance(owner, type):
                self._patch_method(layer, owner, name, original)
            else:
                self._patch_function(layer, original)
        try:
            self._cache_info = resolve(CACHE_INFO)[2]
        except LookupError:
            self.absent.append(CACHE_INFO)

    def _patch_method(self, layer, klass, name, descriptor) -> None:
        if isinstance(descriptor, (classmethod, staticmethod)):
            wrapped = type(descriptor)(
                self._wrap(layer, descriptor.__func__)
            )
        else:
            wrapped = self._wrap(layer, descriptor)
        self._patches.append((klass, name, descriptor, wrapped))

    def _patch_function(self, layer, original) -> None:
        wrapped = self._wrap(layer, original)
        for attr in ("cache_info", "cache_clear"):  # lru_cache wrappers
            if hasattr(original, attr):
                setattr(wrapped, attr, getattr(original, attr))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    def cache_counters(self) -> Dict[str, int]:
        return dict(self._cache_info()) if self._cache_info else {}

    # ------------------------------------------------------------ spans #

    def _wrap(self, layer: str, function: Callable) -> Callable:
        enter, leave = _HOOKS.get(layer, (None, None))
        stack = self._stack
        self_s = self.self_s
        tracer = self

        def probe(*args, **kwargs):
            if not tracer.active:  # a copy bound while installed
                return function(*args, **kwargs)
            memo = enter(tracer, function, args, kwargs) if enter else None
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            span_layer = (
                leave(tracer, function, memo, result) if leave else None
            ) or layer
            self_s[span_layer] += elapsed - frame[1]
            return result

        probe.__name__ = getattr(function, "__name__", "probe")
        probe.__qualname__ = getattr(function, "__qualname__", "probe")
        probe.__doc__ = getattr(function, "__doc__", None)
        return probe

    def in_layer(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)


# Per-layer hooks: ``enter(tracer, fn, args, kwargs) -> memo`` runs before
# the span starts; ``leave(tracer, fn, memo, result) -> layer or None`` runs
# after it ends (a returned layer re-labels the span's self time).


def _enter_sim(tracer, function, args, kwargs):
    if function.__name__ == "simulate" and tracer.in_layer("sim"):
        tracer.counts["sweep.serial_points"] += 1


def _enter_law(tracer, function, args, kwargs):
    probabilities = args[0] if args else kwargs["probabilities"]
    tracer.counts["vote_law.calls"] += 1
    tracer.counts["vote_law.rows"] += len(probabilities)


def _enter_table(tracer, function, args, kwargs):
    return function.cache_info().misses


def _leave_table(tracer, function, misses_before, result):
    if function.cache_info().misses > misses_before:
        tracer.counts["vote_law.table_builds"] += 1
        return "vote_law.table_build"
    return "vote_law.eval"


def _enter_vote(tracer, function, args, kwargs):
    arguments = inspect.signature(function).bind(*args, **kwargs).arguments
    model = arguments["self"]
    if not hasattr(model, "resolve_vote_path"):
        return  # the per-block model hands chunk blocks to the one above
    path = arguments.get("vote_path") or model.resolve_vote_path(
        int(arguments["sample_size"])
    )
    if path == "chunk":
        tracer.counts["delivery.chunk_voters"] += sum(
            int(voters) for voters in arguments["num_voters"]
        )


def _leave_put(tracer, function, memo, path):
    tracer.counts["store.bytes_written"] += os.path.getsize(path)


def _leave_fetch(tracer, function, memo, payload):
    if payload is not None:
        tracer.counts["store.hits"] += 1


_HOOKS = {
    "sim": (_enter_sim, None),
    "vote_law.eval": (_enter_law, None),
    "vote_law.table": (_enter_table, _leave_table),
    "delivery.vote": (_enter_vote, None),
    "store.put": (None, _leave_put),
    "store.fetch": (None, _leave_fetch),
}
