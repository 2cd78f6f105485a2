"""Tests for the result store's on-disk entries (repro.utils.artifacts)."""

from __future__ import annotations

import json

import numpy as np

from repro.utils.artifacts import ResultStore

#: A fixed identity with the value types store identities carry: nested
#: mappings, a numpy integer and a tuple.
IDENTITY = {
    "scenario": {"workload": "rumor", "num_nodes": 10000, "epsilon": 0.2, "seed": 7},
    "code_version": "abc123",
    "trials": np.int64(4),
    "shares": (0.5, 0.25, 0.25),
}

PAYLOAD = {"success_rate": 0.75, "rounds": [12, 13], "engine": "counts"}

#: The entry ``store("sweep", IDENTITY, PAYLOAD)`` writes.
ENTRY_BYTES = (
    b'{"identity":{"code_version":"abc123","scenario":{"epsilon":0.2,'
    b'"num_nodes":10000,"seed":7,"workload":"rumor"},"shares":[0.5,0.25,'
    b'0.25],"trials":4},"payload":{"engine":"counts","rounds":[12,13],'
    b'"success_rate":0.75},"store_key":"f6aa8e88c6fc2d7fecb7a3872de7c3dc2c'
    b'99825ad74ed93bc4d0fd0403429a26"}\n'
)


class TestResultStoreEntries:
    def test_the_content_key_is_pinned(self):
        """The SHA-256 of the compact, key-sorted identity: a key that
        drifts would strand every entry already on disk."""
        assert ResultStore.key_of(IDENTITY) == (
            "f6aa8e88c6fc2d7fecb7a3872de7c3dc2c99825ad74ed93bc4d0fd0403429a26"
        )

    def test_an_entry_is_written_to_pinned_bytes(self, tmp_path):
        """The exact bytes of one entry, pinned: the identity normalized,
        the plain payload as given, both key-sorted and compact."""
        store = ResultStore(tmp_path)
        path = store.store("sweep", IDENTITY, PAYLOAD)
        assert path.name == "sweep_f6aa8e88c6fc2d7f.json"
        assert path.read_bytes() == ENTRY_BYTES
        # A caller that already holds the key writes the same entry.
        path.unlink()
        key = ResultStore.key_of(IDENTITY)
        assert store.store("sweep", IDENTITY, PAYLOAD, key=key) == path
        assert path.read_bytes() == ENTRY_BYTES
        assert store.fetch("sweep", IDENTITY, key=key) == PAYLOAD

    def test_a_new_entry_is_one_line_of_compact_json(self, tmp_path):
        path = ResultStore(tmp_path).store("sweep", IDENTITY, PAYLOAD)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        document = json.loads(text)
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert document["store_key"] == ResultStore.key_of(IDENTITY)
        assert document["payload"] == PAYLOAD

    def test_an_indented_entry_is_still_served(self, tmp_path):
        """Entries written indented, as earlier versions of the store
        did, keep their key and are fetched unchanged."""
        key = ResultStore.key_of(IDENTITY)
        document = {
            "store_key": key,
            "identity": json.loads(json.dumps(IDENTITY, default=int)),
            "payload": PAYLOAD,
        }
        path = tmp_path / f"sweep_{key[:16]}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        assert ResultStore(tmp_path).fetch("sweep", IDENTITY) == PAYLOAD
