"""Plain-JSON result artifacts: their normalization and default directory.

:func:`jsonify_value` is the repository's one canonical JSON encoder:
experiment tables, the result store's identities and payloads, and
:meth:`~repro.sim.SimulationResult.to_json_dict` all normalize through it.
It lives outside :mod:`repro.experiments` so that serializing a simulation
result does not import the experiment package.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

__all__ = ["DEFAULT_STORE_DIR", "jsonify_value"]

#: Default location of the persistent result artifacts, relative to the
#: caller's working directory.
DEFAULT_STORE_DIR = "results"

#: Values :func:`jsonify_value` returns unchanged, matched by exact type
#: (``np.float64`` subclasses ``float`` and is reduced instead).
_PLAIN_LEAVES = (str, int, float, bool, type(None))


def jsonify_value(value: Any) -> Any:
    """Reduce ``value`` to plain JSON-serializable Python.

    Experiment records routinely carry numpy scalars (means, counts,
    boolean verdicts) and the occasional array or tuple; persisting them
    requires the plain-Python equivalents, and normalizing *before* writing
    keeps the ``to_json``/``from_json`` round trip exact.  Arrays of any
    shape, 0-d included, reduce through ``ndarray.tolist()``.
    """
    if type(value) in _PLAIN_LEAVES:
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "OV":
            return jsonify_value(value.tolist())
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [jsonify_value(entry) for entry in value]
    if isinstance(value, Mapping):
        return {str(key): jsonify_value(entry) for key, entry in value.items()}
    return value
