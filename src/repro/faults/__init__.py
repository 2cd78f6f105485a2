"""Fault-injection subsystem: declarative adversaries for the protocol engines.

See :mod:`repro.faults.model` for the adversary families and
``docs/faults.md`` for how each engine tier injects them.
"""

from repro.faults.delivery import FaultedDeliveryEngine
from repro.faults.injection import (
    FaultedPhaseSampler,
    largest_remainder_split,
    runner_up_opinions,
    split_faulty_population,
)
from repro.faults.model import FAULT_KINDS, FaultModel

__all__ = [
    "FAULT_KINDS",
    "FaultModel",
    "FaultedDeliveryEngine",
    "FaultedPhaseSampler",
    "largest_remainder_split",
    "runner_up_opinions",
    "split_faulty_population",
]
