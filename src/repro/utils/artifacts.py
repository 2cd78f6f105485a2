"""Plain-JSON result artifacts: their normalization, directory and store.

:func:`jsonify_value` is the repository's one canonical JSON encoder:
experiment tables, the result store's identities and payloads, and
:meth:`~repro.sim.SimulationResult.to_json_dict` all normalize through it.
:class:`ResultStore` is the content-keyed store those artifacts persist
in.  Both live outside :mod:`repro.experiments` so that serializing a
simulation result, or running a store-backed sweep, does not import the
experiment package.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.experiments.orchestrator import ExperimentJob
    from repro.experiments.results import ExperimentTable

__all__ = ["DEFAULT_STORE_DIR", "ResultStore", "jsonify_value"]

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


class ResultStore:
    """Content-keyed persistence of result payloads under one directory.

    Entries are JSON files named ``<label>_<key-prefix>.json``; the key is
    the SHA-256 of a canonical identity mapping.  An entry is one line of
    compact, key-sorted JSON, which CPython's C encoder writes (``indent``
    would force the pure-Python encoder); :meth:`fetch` reads any JSON
    layout, so entries written indented are still served.  The
    ``fetch``/``store`` pair works on arbitrary plain-JSON payloads (sweep
    points, ``examples/scaling_study.py``); ``get``/``put``/``has`` work on
    :class:`~repro.experiments.results.ExperimentTable` objects keyed by an
    :class:`~repro.experiments.orchestrator.ExperimentJob`'s identity
    (experiment id + canonical config + seed + engine + code version), and
    import the experiment package only when called.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    # ---------------- low-level payload interface ---------------- #

    @staticmethod
    def key_of(identity: Mapping[str, Any]) -> str:
        """The SHA-256 content key of a canonical identity mapping."""
        canonical = json.dumps(
            jsonify_value(identity), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _payload_path(self, label: str, key: str) -> Path:
        return self.root / f"{label}_{key[:16]}.json"

    def fetch(
        self,
        label: str,
        identity: Mapping[str, Any],
        *,
        key: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The stored payload for ``identity`` (``None`` on a cache miss).

        ``key`` is :meth:`key_of` of ``identity``, for a caller that
        already has it (a sweep keys each point once, for the lookup and
        for the write).
        """
        if key is None:
            key = self.key_of(identity)
        path = self._payload_path(label, key)
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("store_key") != key:
            return None
        return document.get("payload")

    def store(
        self,
        label: str,
        identity: Mapping[str, Any],
        payload: Mapping[str, Any],
        *,
        key: Optional[str] = None,
    ) -> Path:
        """Persist ``payload`` under ``identity``'s content key.

        ``payload`` must be plain JSON, as the ``to_json_dict`` methods of
        results and tables return it (they normalize through
        :func:`jsonify_value`); it is written as given.  ``identity`` is
        normalized here, and ``key`` is as for :meth:`fetch`.
        """
        if key is None:
            key = self.key_of(identity)
        path = self._payload_path(label, key)
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "store_key": key,
            "identity": jsonify_value(identity),
            "payload": payload,
        }
        path.write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        )
        return path

    # ---------------- experiment-table interface ---------------- #

    def get(self, job: ExperimentJob) -> Optional[ExperimentTable]:
        """The cached table for ``job``, or ``None`` on a miss."""
        from repro.experiments.results import ExperimentTable

        payload = self.fetch(job.experiment_id, job.identity())
        if payload is None:
            return None
        return ExperimentTable.from_json(payload)

    def put(self, job: ExperimentJob, table: ExperimentTable) -> Path:
        """Persist ``table`` as the result of ``job``."""
        return self.store(
            job.experiment_id, job.identity(), table.to_json_dict()
        )

    def has(self, job: ExperimentJob) -> bool:
        """``True`` iff a valid cached table exists for ``job``."""
        return self.get(job) is not None
