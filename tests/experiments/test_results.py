"""Tests for repro.experiments.results.ExperimentTable."""

from __future__ import annotations

import json
from collections.abc import Mapping

import numpy as np
import pytest

from repro.experiments.results import ExperimentTable, jsonify_value


@pytest.fixture
def table() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E0",
        title="A test table",
        paper_claim="Things hold",
    )
    table.add_record(n=10, value=1.5, ok=True)
    table.add_record(n=20, value=2.5, ok=False)
    return table


class TestExperimentTable:
    def test_add_record_returns_row(self, table):
        row = table.add_record(n=30, value=3.5, ok=True)
        assert row["n"] == 30
        assert len(table) == 3

    def test_column_extraction(self, table):
        assert table.column("n") == [10, 20]
        assert table.column("missing") == [None, None]

    def test_filtered(self, table):
        assert len(table.filtered(ok=True)) == 1
        assert table.filtered(ok=True)[0]["n"] == 10
        assert table.filtered(n=20, ok=False)[0]["value"] == 2.5
        assert table.filtered(n=99) == []

    def test_to_text_contains_metadata_and_rows(self, table):
        text = table.to_text()
        assert "[E0] A test table" in text
        assert "Things hold" in text
        assert "20" in text

    def test_to_text_column_selection(self, table):
        text = table.to_text(columns=["n"])
        assert "value" not in text.splitlines()[3]

    def test_notes_rendered(self, table):
        table.add_note("a caveat")
        assert "note: a caveat" in table.to_text()

    def test_iteration(self, table):
        assert [record["n"] for record in table] == [10, 20]


class TestJsonRoundTrip:
    def test_records_notes_provenance_preserved(self, table):
        table.add_note("a caveat")
        table.provenance = {"seed": 3, "engine": "batched"}
        restored = ExperimentTable.from_json(table.to_json())
        assert restored.experiment_id == table.experiment_id
        assert restored.title == table.title
        assert restored.paper_claim == table.paper_claim
        assert restored.records == table.records
        assert restored.notes == table.notes
        assert restored.provenance == table.provenance

    def test_round_trip_from_dict(self, table):
        restored = ExperimentTable.from_json(table.to_json_dict())
        assert restored.records == table.records

    def test_numpy_values_are_reduced_to_plain_python(self):
        table = ExperimentTable("E0", "t", "c")
        table.add_record(
            count=np.int64(7),
            rate=np.float64(0.5),
            ok=np.bool_(True),
            trajectory=np.array([1.0, 2.0]),
        )
        document = json.loads(table.to_json())
        record = document["records"][0]
        assert record == {
            "count": 7, "rate": 0.5, "ok": True, "trajectory": [1.0, 2.0],
        }
        restored = ExperimentTable.from_json(document)
        assert isinstance(restored.records[0]["count"], int)
        assert isinstance(restored.records[0]["ok"], bool)

    def test_from_json_rejects_incomplete_documents(self):
        with pytest.raises(ValueError, match="missing fields"):
            ExperimentTable.from_json({"experiment_id": "E0"})
        with pytest.raises(TypeError):
            ExperimentTable.from_json(42)

    def test_empty_provenance_by_default(self, table):
        assert table.provenance == {}
        assert ExperimentTable.from_json(table.to_json()).provenance == {}


class TestJsonifyValue:
    def test_scalars_pass_through(self):
        assert jsonify_value("x") == "x"
        assert jsonify_value(None) is None
        assert jsonify_value(3) == 3

    def test_nested_structures(self):
        value = {"a": (np.int64(1), [np.float64(2.0)]), "b": {"c": np.bool_(False)}}
        assert jsonify_value(value) == {"a": [1, [2.0]], "b": {"c": False}}

    def test_zero_dimensional_arrays_reduce_to_scalars(self):
        assert jsonify_value(np.array(3.0)) == 3.0
        assert type(jsonify_value(np.array(3.0))) is float
        assert type(jsonify_value(np.array(7, dtype=np.int32))) is int
        assert jsonify_value(np.array(True)) is True
        assert jsonify_value({"x": (np.array(2.5),)}) == {"x": [2.5]}
        assert jsonify_value(np.array(np.int64(4), dtype=object)) == 4

    def test_experiment_layer_re_exports_the_artifact_encoder(self):
        from repro.utils import artifacts

        assert jsonify_value is artifacts.jsonify_value


def _reference_jsonify(value):
    """jsonify_value before 0-d arrays were handled: a walk that reduces
    every array element by element (and raises on 0-d arrays)."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_reference_jsonify(entry) for entry in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_reference_jsonify(entry) for entry in value]
    if isinstance(value, Mapping):
        return {
            str(key): _reference_jsonify(entry) for key, entry in value.items()
        }
    return value


_DTYPES = (np.int64, np.int32, np.uint8, np.float64, np.float32, np.bool_)


def _random_leaf(rng):
    choice = rng.integers(9)
    if choice == 0:
        return int(rng.integers(-(10**12), 10**12))
    if choice == 1:
        return float(rng.normal())
    if choice == 2:
        return bool(rng.integers(2))
    if choice == 3:
        return None if rng.integers(2) else f"s{rng.integers(100)}"
    dtype = _DTYPES[rng.integers(len(_DTYPES))]
    if choice == 4:
        return dtype(rng.integers(0, 100))  # a numpy scalar
    shape = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
    array = (rng.normal(size=shape) * 50).astype(dtype)
    if choice == 5:
        return array
    if choice == 6:
        return np.array([1.5, np.nan, np.inf, -0.0])
    objects = np.empty(int(rng.integers(1, 4)), dtype=object)
    for index in range(objects.size):
        objects[index] = (
            dtype(rng.integers(0, 100)) if choice == 7 else {"a": array}
        )
    return objects


def _random_payload(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    width = int(rng.integers(1, 4))
    children = [_random_payload(rng, depth - 1) for _ in range(width)]
    kind = rng.integers(3)
    if kind == 0:
        return children
    if kind == 1:
        return tuple(children)
    return {
        (f"k{index}" if rng.integers(2) else index): child
        for index, child in enumerate(children)
    }


class TestJsonifyValueAgainstReference:
    """The documents are byte-identical to the reference walk's."""

    def test_random_nested_payloads(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            payload = _random_payload(rng, depth=4)
            assert json.dumps(jsonify_value(payload), sort_keys=True) == json.dumps(
                _reference_jsonify(payload), sort_keys=True
            )

    def test_a_sweep_point_document(self, monkeypatch):
        from repro.sim import Scenario, ScenarioGrid, simulate_sweep
        from repro.sim import result as sim_result

        grid = ScenarioGrid(
            Scenario(
                workload="rumor", num_nodes=2000, engine="counts",
                num_trials=4, seed=3,
            ),
            {"epsilon": (0.2, 0.3)},
        )
        point = simulate_sweep(grid)[1]
        document = json.dumps(point.to_json_dict(), sort_keys=True)
        monkeypatch.setattr(sim_result, "jsonify_value", _reference_jsonify)
        assert json.dumps(point.to_json_dict(), sort_keys=True) == document
