"""The built-in reprolint rules.

Importing this package registers every rule class with the registry
(:mod:`repro.analysis.lint.registry`); the import list below is the
single place a new rule module must be added.
"""

from repro.analysis.lint.rules import (  # noqa: F401  (imported for rule registration side effects)
    rng,
    counts_tier,
    dtype,
    wallclock,
    serialization,
    registry_completeness,
)

__all__ = [
    "rng",
    "counts_tier",
    "dtype",
    "wallclock",
    "serialization",
    "registry_completeness",
]
