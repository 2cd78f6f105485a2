"""Argument-validation helpers shared across the library.

The public API validates its inputs eagerly with clear error messages; these
helpers keep that validation uniform and keep the individual modules short.
All helpers raise ``ValueError`` (or ``TypeError`` for wrong types) and return
the validated, possibly-normalized value so they can be used inline.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Sequence

import numpy as np

__all__ = [
    "ScenarioError",
    "require_positive_int",
    "require_non_negative_int",
    "require_positive",
    "require_fraction",
    "require_in_range",
    "require_probability_vector",
    "require_opinion",
]


class ScenarioError(ValueError):
    """An invalid or unsupported scenario combination.

    Every rejection names the offending knob and the supported
    alternatives; subclassing ``ValueError`` keeps pre-existing callers
    (and ``except ValueError`` CLI handling) working.  Defined here, below
    the engines, so an engine can reject work it cannot do with the same
    type :mod:`repro.sim.scenario` raises.
    """


def require_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def require_non_negative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def require_positive(value, name: str) -> float:
    """Validate that ``value`` is a finite real number > 0."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite number > 0, got {value}")
    return value


def require_fraction(value, name: str, *, inclusive_low: bool = True,
                     inclusive_high: bool = True) -> float:
    """Validate that ``value`` lies in the unit interval [0, 1]."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (np.isfinite(value) and low_ok and high_ok):
        low_bracket = "[" if inclusive_low else "("
        high_bracket = "]" if inclusive_high else ")"
        raise ValueError(
            f"{name} must lie in {low_bracket}0, 1{high_bracket}, got {value}"
        )
    return value


def require_in_range(value, name: str, low: float, high: float) -> float:
    """Validate that ``low <= value <= high``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (np.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def require_probability_vector(values: Sequence[float], name: str,
                               *, atol: float = 1e-9) -> np.ndarray:
    """Validate that ``values`` is a non-negative vector summing to 1."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(~np.isfinite(array)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(array < -atol):
        raise ValueError(f"{name} must be non-negative, got {array.tolist()}")
    total = float(array.sum())
    if abs(total - 1.0) > max(atol, 1e-9 * array.size):
        raise ValueError(f"{name} must sum to 1 (got sum={total!r})")
    array = np.clip(array, 0.0, None)
    return array / array.sum()


def require_opinion(value, name: str, num_opinions: int,
                    *, allow_undecided: bool = False) -> int:
    """Validate an opinion label in ``1..num_opinions`` (0 = undecided)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    low = 0 if allow_undecided else 1
    if not (low <= value <= num_opinions):
        raise ValueError(
            f"{name} must be in [{low}, {num_opinions}], got {value}"
        )
    return value
