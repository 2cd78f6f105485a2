"""Fault-injection subsystem: declarative adversaries for the protocol engines.

See :mod:`repro.faults.model` for the adversary families and
``docs/faults.md`` for how each engine tier injects them.  Every name in
``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`), so a counts run never loads the per-node
:class:`FaultedDeliveryEngine`.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "FAULT_KINDS": "repro.faults.model",
    "FaultModel": "repro.faults.model",
    "FaultedDeliveryEngine": "repro.faults.delivery",
    "FaultedPhaseSampler": "repro.faults.injection",
    "largest_remainder_split": "repro.faults.injection",
    "runner_up_opinions": "repro.faults.injection",
    "split_faulty_population": "repro.faults.injection",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
