"""Experiment result containers.

Every experiment returns an :class:`ExperimentTable`: a named list of record
dictionaries plus the paper statement it reproduces.  The table renders
itself as plain text (for benches and examples) and exposes simple accessors
so tests can assert on the reproduced trends without re-running anything.

Tables also serialize to and from JSON (:meth:`ExperimentTable.to_json` /
:meth:`ExperimentTable.from_json`), which is what the orchestration layer's
content-keyed result store persists under ``results/``: the provenance
dictionary carries the run's seed, engine, configuration and code version so
a stored table is self-describing.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.utils.artifacts import jsonify_value
from repro.utils.tables import format_records

__all__ = ["ExperimentTable", "jsonify_value"]


@dataclass
class ExperimentTable:
    """A reproduced table: rows of measurements plus provenance.

    Attributes
    ----------
    experiment_id:
        The experiment id (``"E1"`` … ``"E15"``).
    title:
        Human-readable title.
    paper_claim:
        The paper statement (theorem/lemma/claim) the table reproduces.
    records:
        One dictionary per row.
    notes:
        Free-form remarks recorded alongside the measurements (e.g. observed
        deviations, scale caveats).
    provenance:
        How the table was produced (seed, trial engine, configuration, code
        version, timestamps) — filled in by the orchestration layer; empty
        for ad-hoc programmatic runs.
    """

    experiment_id: str
    title: str
    paper_claim: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def add_record(self, **fields: Any) -> Dict[str, Any]:
        """Append a row and return it."""
        record = dict(fields)
        self.records.append(record)
        return record

    def add_note(self, note: str) -> None:
        """Append a free-form note."""
        self.notes.append(str(note))

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [record.get(name) for record in self.records]

    def filtered(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows whose fields match every keyword criterion exactly."""
        return [
            record
            for record in self.records
            if all(record.get(key) == value for key, value in criteria.items())
        ]

    def to_text(self, *, columns: Optional[Sequence[str]] = None) -> str:
        """Render the table (and notes) as plain text."""
        header = f"[{self.experiment_id}] {self.title}"
        claim = f"paper claim: {self.paper_claim}"
        body = format_records(self.records, columns=columns)
        parts = [header, claim, "", body]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    # ------------------------------------------------------------------ #
    # JSON persistence (the orchestrator's result-store format)
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, Any]:
        """The table as a plain-Python dictionary (numpy types reduced)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "records": [jsonify_value(record) for record in self.records],
            "notes": list(self.notes),
            "provenance": jsonify_value(self.provenance),
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Serialize the table (records, notes, provenance) to JSON."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(
        cls, document: Union[str, Mapping[str, Any]]
    ) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_json` output (string or dict)."""
        if isinstance(document, str):
            document = json.loads(document)
        if not isinstance(document, Mapping):
            raise TypeError(
                "document must be a JSON object string or a mapping, got "
                f"{type(document).__name__}"
            )
        missing = [
            key
            for key in ("experiment_id", "title", "paper_claim")
            if key not in document
        ]
        if missing:
            raise ValueError(
                f"experiment-table document is missing fields: {missing}"
            )
        return cls(
            experiment_id=str(document["experiment_id"]),
            title=str(document["title"]),
            paper_claim=str(document["paper_claim"]),
            records=[dict(record) for record in document.get("records", [])],
            notes=[str(note) for note in document.get("notes", [])],
            provenance=dict(document.get("provenance", {})),
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterable[Dict[str, Any]]:
        return iter(self.records)
