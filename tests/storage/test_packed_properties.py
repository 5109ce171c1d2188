"""Properties of the packed block store over random geometry.

Tensors of order 3–5 with random, often ragged, block shapes, down to
empty tensors and tensors that fit in a single block: a round trip
returns the input, a slice query equals the dense slice, a full-store
top-k equals a brute-force residual ranking, and damaging any one block
makes that top-k raise, because the scan checks every block's digest.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BlockCorruptionError
from repro.serving import FactorEngine
from repro.storage import BlockTensorStore
from repro.storage.store import DATA_FILE
from repro.tensor import SparseTensor, TuckerTensor


@st.composite
def stored_tensors(draw):
    """(tensor, block shape, rng): random shape, density and tiling."""
    ndim = draw(st.integers(3, 5))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=ndim,
                                max_size=ndim)))
    # Up to one past the mode size, so single-block tensors and ragged
    # edge tiles both come up.
    block = tuple(draw(st.integers(1, size + 1)) for size in shape)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < density
    coords = np.argwhere(mask)
    tensor = SparseTensor(shape, coords, rng.standard_normal(len(coords)))
    return tensor, block, rng


def _store(directory, tensor, block):
    store = BlockTensorStore(directory)
    store.put("t", tensor, block_shape=block)
    return store


def _engine(shape, rng):
    ranks = [min(2, size) for size in shape]
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((size, rank))
               for size, rank in zip(shape, ranks)]
    return FactorEngine(TuckerTensor(core, factors))


SETTINGS = settings(max_examples=40, deadline=None)


class TestPackedStoreProperties:
    @given(case=stored_tensors())
    @SETTINGS
    def test_put_get_roundtrip(self, case):
        tensor, block, _rng = case
        with tempfile.TemporaryDirectory() as directory:
            store = _store(directory, tensor, block)
            assert store.get("t") == tensor
            assert sum(b.nnz for _id, b in store.iter_blocks("t")) == (
                tensor.nnz
            )

    @given(case=stored_tensors(), data=st.data())
    @SETTINGS
    def test_slice_query_equals_dense_slice(self, case, data):
        tensor, block, _rng = case
        mode = data.draw(st.integers(0, len(tensor.shape) - 1))
        index = data.draw(st.integers(0, tensor.shape[mode] - 1))
        with tempfile.TemporaryDirectory() as directory:
            result = _store(directory, tensor, block).slice_query(
                "t", mode, index
            )
        dense = tensor.to_dense()
        expected = np.zeros_like(dense)
        slicer = [slice(None)] * dense.ndim
        slicer[mode] = index
        expected[tuple(slicer)] = dense[tuple(slicer)]
        assert np.array_equal(result.to_dense(), expected)
        assert result.nnz == int(
            (tensor.coords[:, mode] == index).sum()
        )

    @given(case=stored_tensors(), k=st.integers(1, 12))
    @SETTINGS
    def test_topk_equals_brute_force_ranking(self, case, k):
        tensor, block, rng = case
        engine = _engine(tensor.shape, rng)
        with tempfile.TemporaryDirectory() as directory:
            answer = engine.topk_anomalies(
                _store(directory, tensor, block), "t", k
            )
        dense = engine.tucker.reconstruct()
        residual = np.abs(tensor.values - dense[tuple(tensor.coords.T)])
        order = np.argsort(-residual, kind="stable")[:k]
        assert [entry[0] for entry in answer] == [
            tuple(int(i) for i in tensor.coords[j]) for j in order
        ]
        assert np.allclose([entry[3] for entry in answer], residual[order],
                           rtol=1e-9, atol=1e-12)

    @given(case=stored_tensors(), data=st.data())
    @SETTINGS
    def test_any_damaged_block_fails_the_topk_scan(self, case, data):
        tensor, block, rng = case
        if tensor.nnz == 0:
            return
        with tempfile.TemporaryDirectory() as directory:
            store = _store(directory, tensor, block)
            entry = store.catalog.get("t")
            position = data.draw(st.integers(0, entry.n_blocks - 1))
            cell = data.draw(st.integers(entry.offsets[position],
                                         entry.offsets[position + 1] - 1))
            # Flip one bit of the cell's value: the file keeps its size
            # and stays well-formed, only that block's digest breaks.
            offset = 8 * (entry.nnz * len(tensor.shape) + cell)
            with open(store.directory / "t" / DATA_FILE, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0x01]))
            with pytest.raises(BlockCorruptionError) as excinfo:
                _engine(tensor.shape, rng).topk_anomalies(store, "t", 3)
        assert excinfo.value.block_id == entry.block_ids[position]
