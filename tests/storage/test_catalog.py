"""Catalog: JSON round-trip and error handling."""

import json

import pytest

from repro.exceptions import StorageError
from repro.storage import Catalog, TensorEntry


def entry(name="t"):
    return TensorEntry(
        name=name,
        shape=(4, 5),
        block_shape=(2, 2),
        nnz=7,
        n_blocks=3,
        block_ids=[(0, 0), (1, 1), (1, 2)],
    )


class TestCatalog:
    def test_put_get(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.put(entry())
        got = catalog.get("t")
        assert got.shape == (4, 5)
        assert got.block_ids == [(0, 0), (1, 1), (1, 2)]

    def test_persists_across_instances(self, tmp_path):
        Catalog(tmp_path).put(entry())
        assert "t" in Catalog(tmp_path)

    def test_remove(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.put(entry())
        catalog.remove("t")
        assert "t" not in catalog
        assert Catalog(tmp_path).names() == []

    def test_get_missing(self, tmp_path):
        with pytest.raises(StorageError):
            Catalog(tmp_path).get("missing")

    def test_corrupt_catalog_rejected(self, tmp_path):
        (tmp_path / "catalog.json").write_text("{broken")
        with pytest.raises(StorageError):
            Catalog(tmp_path)

    def test_json_types_roundtrip(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.put(entry())
        raw = json.loads((tmp_path / "catalog.json").read_text())
        assert raw["tensors"]["t"]["shape"] == [4, 5]
        restored = TensorEntry.from_json(raw["tensors"]["t"])
        assert restored.shape == (4, 5)
        assert isinstance(restored.block_ids[0], tuple)

    def test_per_block_npz_catalog_rejected(self, tmp_path):
        """A catalog written for the per-block ``.npz`` layout (version
        1, no offsets or digests) is refused with a typed error telling
        the user to store the tensors again, never half-read."""
        record = entry().to_json()
        del record["offsets"], record["digests"]
        (tmp_path / "catalog.json").write_text(
            json.dumps({"version": 1, "tensors": {"t": record}})
        )
        with pytest.raises(StorageError, match="store the tensors again"):
            Catalog(tmp_path)

