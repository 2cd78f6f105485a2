"""Declarative fault models: which nodes misbehave, and how.

A :class:`FaultModel` is a serializable axis on ``Scenario`` describing a
population of faulty nodes.  Four adversary families are supported:

``crash``
    Crash/silent nodes: transmit normally until round ``crash_round``, then
    stop forever.  ``crash_round = 0`` means silent from the start.
``omission``
    Omission faults: every message a faulty node would send is independently
    dropped with probability ``drop_rate``.
``liar``
    Random-liar Byzantine: every message carries a uniformly random opinion,
    regardless of the node's own state.
``adaptive``
    Adaptive plurality-targeting Byzantine: every message carries the current
    *runner-up* opinion among honest senders (second-largest support), trying
    to flip the plurality.

Every family's emissions are a function of the honest senders' opinion
histogram (the adaptive target is its runner-up) or of nothing at all, so
all four run on every sampling tier, the counts tier included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["FAULT_KINDS", "FaultModel"]

FAULT_KINDS = ("crash", "omission", "liar", "adaptive")


@dataclass(frozen=True)
class FaultModel:
    """A serializable description of one faulty sub-population.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    fraction:
        Fraction ``f`` of the ``num_nodes`` population that is faulty,
        strictly between 0 and 1.  The faulty head-count is
        ``round(f * num_nodes)`` and must leave at least one honest node.
    crash_round:
        (``crash`` only) Global round index after which faulty nodes fall
        silent; rounds ``0 .. crash_round - 1`` transmit normally.  The
        default 0 means silent from the start.
    drop_rate:
        (``omission`` only) Independent per-message drop probability in
        ``(0, 1]``.  Default 0.5.
    """

    kind: str
    fraction: float
    crash_round: int = 0
    drop_rate: float = 0.5

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"faults.kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        fraction = self.fraction
        if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
            raise ValueError(
                f"faults.fraction must be a number in (0, 1), got {fraction!r}"
            )
        if not 0.0 < float(fraction) < 1.0:
            raise ValueError(
                "faults.fraction must be strictly between 0 and 1, got "
                f"{fraction!r}"
            )
        if not isinstance(self.crash_round, int) or isinstance(self.crash_round, bool):
            raise ValueError(
                f"faults.crash_round must be an integer, got {self.crash_round!r}"
            )
        if self.crash_round < 0:
            raise ValueError(
                f"faults.crash_round must be non-negative, got {self.crash_round}"
            )
        if self.kind != "crash" and self.crash_round != 0:
            raise ValueError(
                "faults.crash_round only applies to kind='crash', got "
                f"crash_round={self.crash_round} with kind={self.kind!r}"
            )
        drop = self.drop_rate
        if not isinstance(drop, (int, float)) or isinstance(drop, bool):
            raise ValueError(
                f"faults.drop_rate must be a number in (0, 1], got {drop!r}"
            )
        if not 0.0 < float(drop) <= 1.0:
            raise ValueError(
                f"faults.drop_rate must be in (0, 1], got {drop!r}"
            )
        if self.kind != "omission" and float(drop) != 0.5:
            raise ValueError(
                "faults.drop_rate only applies to kind='omission', got "
                f"drop_rate={drop} with kind={self.kind!r}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def faulty_count(self, num_nodes: int) -> int:
        """Head-count ``m = round(f * n)`` of faulty nodes."""
        if num_nodes < 2:
            raise ValueError(
                f"faults require num_nodes >= 2, got {num_nodes}"
            )
        count = int(round(self.fraction * num_nodes))
        if count >= num_nodes:
            raise ValueError(
                f"faults.fraction={self.fraction} leaves no honest node for "
                f"num_nodes={num_nodes}; lower the fraction"
            )
        return count

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "fraction": float(self.fraction),
            "crash_round": int(self.crash_round),
            "drop_rate": float(self.drop_rate),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultModel":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"faults payload must be a mapping, got {type(payload).__name__}"
            )
        known = {"kind", "fraction", "crash_round", "drop_rate"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultModel fields: {unknown}; known fields are "
                f"{sorted(known)}"
            )
        if "kind" not in payload or "fraction" not in payload:
            raise ValueError("FaultModel payload requires 'kind' and 'fraction'")
        kwargs: Dict[str, Any] = {
            "kind": payload["kind"],
            "fraction": payload["fraction"],
        }
        if "crash_round" in payload:
            kwargs["crash_round"] = payload["crash_round"]
        if "drop_rate" in payload:
            kwargs["drop_rate"] = payload["drop_rate"]
        return cls(**kwargs)


def coerce_fault_model(value: Any) -> Optional[FaultModel]:
    """Accept ``None``, a :class:`FaultModel`, or a mapping payload."""
    if value is None or isinstance(value, FaultModel):
        return value
    if isinstance(value, Mapping):
        return FaultModel.from_dict(value)
    raise ValueError(
        "faults must be a FaultModel, a mapping, or None, got "
        f"{type(value).__name__}"
    )
