"""Block-store corruption: every bad read is a typed, metered error."""

import numpy as np
import pytest

from repro.exceptions import (
    BlockCorruptionError,
    FaultInjectionError,
    StorageError,
)
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.storage import BlockTensorStore
from repro.storage.store import DATA_FILE
from repro.tensor import SparseTensor


@pytest.fixture()
def store(tmp_path):
    store = BlockTensorStore(tmp_path / "db")
    dense = np.arange(64, dtype=float).reshape(4, 4, 4) + 1.0
    store.put("t", SparseTensor.from_dense(dense), block_shape=(2, 2, 2))
    return store


class TestInjectedCorruption:
    def test_corrupt_block_read_raises_typed_error(self, store, chaos_seed):
        plan = plan_of(
            [FaultSpec(site="storage.block-read", kind="corrupt",
                       target="t/(0, 0, 0)", times=1)],
            seed=chaos_seed,
        )
        registry = MetricsRegistry()
        with use_metrics(registry), use_injector(FaultInjector(plan)):
            with pytest.raises(BlockCorruptionError) as excinfo:
                store.get_block("t", (0, 0, 0))
        assert excinfo.value.tensor == "t"
        assert excinfo.value.block_id == (0, 0, 0)
        assert registry.counter("storage.block_corruptions").value == 1
        # The corruption is real bytes on disk: it persists after the
        # fault budget is spent, and stays typed.
        with pytest.raises(BlockCorruptionError):
            store.get_block("t", (0, 0, 0))
        # Untouched blocks still read fine.
        block = store.get_block("t", (1, 1, 1))
        assert block.nnz > 0

    def test_injected_read_error_is_fault_typed(self, store, chaos_seed):
        plan = plan_of(
            [FaultSpec(site="storage.block-read", kind="raise",
                       target="t/*", times=1)],
            seed=chaos_seed,
        )
        injector = FaultInjector(plan)
        with use_injector(injector):
            with pytest.raises(FaultInjectionError) as excinfo:
                store.get_block("t", (0, 0, 0))
        assert excinfo.value.site == "storage.block-read"
        assert injector.summary()["injected"] == 1


def _data_file(store):
    return store.directory / "t" / DATA_FILE


def _corruptions(registry):
    return registry.counter("storage.block_corruptions").value


class TestRealCorruption:
    def test_missing_catalogued_block_file(self, store):
        _data_file(store).unlink()
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BlockCorruptionError, match="missing") as exc:
                store.get_block("t", (0, 0, 0))
        assert exc.value.tensor == "t"
        assert exc.value.block_id == (0, 0, 0)
        assert _corruptions(registry) == 1

    def test_truncated_block_file(self, store):
        path = _data_file(store)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BlockCorruptionError, match="unreadable") as exc:
                store.get_block("t", (1, 0, 1))
        assert exc.value.block_id == (1, 0, 1)
        assert _corruptions(registry) == 1

    def test_checksum_catches_silent_tampering(self, store):
        """Change one block's values in place but keep its catalogued
        digest: the file stays well-formed, the digest does not match."""
        entry = store.catalog.get("t")
        position = entry.block_ids.index((0, 1, 0))
        start, end = entry.offsets[position], entry.offsets[position + 1]
        values_at = entry.nnz * 8 * len(entry.shape)
        with open(_data_file(store), "r+b") as handle:
            handle.seek(values_at + 8 * start)
            values = np.frombuffer(handle.read(8 * (end - start)))
            handle.seek(values_at + 8 * start)
            handle.write((values + 1.0).tobytes())
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BlockCorruptionError,
                               match="checksum mismatch") as exc:
                store.get_block("t", (0, 1, 0))
            assert exc.value.block_id == (0, 1, 0)
            assert _corruptions(registry) == 1
            # Untouched blocks still read, with their stored values.
            block = store.get_block("t", (1, 1, 1))
        assert block.nnz == 8
        assert block.values.min() == 43.0  # cell (2, 2, 2)
        assert _corruptions(registry) == 1

    def test_full_get_surfaces_block_corruption(self, store):
        entry = store.catalog.get("t")
        last = entry.offsets[-2] * 8 * len(entry.shape)
        with open(_data_file(store), "r+b") as handle:
            handle.seek(last)
            handle.write(b"\xff")
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BlockCorruptionError,
                               match="checksum mismatch") as exc:
                store.get("t")
        assert exc.value.block_id == entry.block_ids[-1]
        assert _corruptions(registry) == 1
        assert store.get_block("t", (0, 0, 0)).nnz == 8


class TestTypedLookupErrors:
    def test_unknown_tensor_is_storage_error_not_keyerror(self, store):
        with pytest.raises(StorageError):
            store.get_block("never-stored", (0, 0, 0))
        with pytest.raises(StorageError):
            store.get("never-stored")

    def test_out_of_grid_block_id_is_storage_error(self, store):
        with pytest.raises(StorageError, match="outside grid"):
            store.get_block("t", (9, 9, 9))

    def test_block_corruption_error_is_storage_error(self):
        assert issubclass(BlockCorruptionError, StorageError)

    def test_block_corruption_error_pickles(self):
        import pickle

        error = BlockCorruptionError("t", (1, 2), "checksum mismatch")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.tensor == "t"
        assert clone.block_id == (1, 2)
        assert clone.reason == "checksum mismatch"

    def test_uncatalogued_empty_block_still_reads_empty(self, tmp_path):
        """A block inside the grid that simply has no cells is not an
        error — only catalogued-but-unreadable blocks are."""
        store = BlockTensorStore(tmp_path / "db2")
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0  # only block (0, 0) is non-empty
        store.put("s", SparseTensor.from_dense(dense), block_shape=(2, 2))
        empty = store.get_block("s", (1, 1))
        assert empty.nnz == 0
        assert empty.shape == (2, 2)
