"""Shared utilities: RNG management, validation, multisets, tables, logging.

Every name in ``__all__`` loads from its submodule on first use
(:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "Multiset": "repro.utils.multiset",
    "as_generator": "repro.utils.rng",
    "format_table": "repro.utils.tables",
    "get_logger": "repro.utils.logging",
    "majority_vote": "repro.utils.multiset",
    "mode_set": "repro.utils.multiset",
    "occurrences": "repro.utils.multiset",
    "require_fraction": "repro.utils.validation",
    "require_in_range": "repro.utils.validation",
    "require_positive": "repro.utils.validation",
    "require_positive_int": "repro.utils.validation",
    "require_probability_vector": "repro.utils.validation",
    "spawn_generators": "repro.utils.rng",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
