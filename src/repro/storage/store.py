"""The block tensor store: persist sparse ensemble tensors on disk.

A TensorDB-flavoured substrate (paper Section II-B): a tensor is tiled
into hyper-blocks (:mod:`repro.storage.blocks`) and kept as one packed
file, ``<name>/cells.bin``, holding every cell's ``int64`` coordinates
sorted by block id, then the ``float64`` values in the same order.  The
JSON catalog records the block ids, an ``offsets`` index (block ``i``
owns cells ``offsets[i]:offsets[i + 1]``) and one SHA-256 digest per
block.  Reads memory-map the file, slice out only the blocks a query
touches and check each of those blocks' digests before returning any
of its cells: a missing, truncated or altered file raises
:class:`~repro.exceptions.BlockCorruptionError` instead of feeding
garbage into a decomposition.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from bisect import bisect_left
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import BlockCorruptionError, StorageError
from ..faults.injector import get_injector
from ..observability import get_metrics, span as _span
from ..tensor.sparse import SparseTensor
from .blocks import BlockedLayout, BlockId, sort_by_block
from .catalog import Catalog, TensorEntry

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")
DATA_FILE = "cells.bin"


def _block_digest(raw, offsets: Sequence[int], row: int, i: int) -> str:
    """SHA-256 of block ``i``'s coordinate and value bytes in the
    packed buffer ``raw`` (``row`` bytes of coordinates per cell)."""
    start, end = offsets[i], offsets[i + 1]
    base = offsets[-1] * row
    digest = hashlib.sha256(raw[start * row:end * row])
    digest.update(raw[base + 8 * start:base + 8 * end])
    return digest.hexdigest()


class BlockTensorStore:
    """A directory-backed store of blocked sparse tensors."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.catalog = Catalog(self.directory)

    def _data_path(self, name: str) -> Path:
        if not _NAME_PATTERN.match(name) or set(name) == {"."}:
            raise StorageError(
                f"invalid tensor name {name!r}; use letters, digits, "
                "'_', '-', '.'"
            )
        return self.directory / name / DATA_FILE

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        tensor: SparseTensor,
        block_shape: Optional[Tuple[int, ...]] = None,
        overwrite: bool = False,
    ) -> TensorEntry:
        """Store a tensor under ``name``.

        ``block_shape`` defaults to splitting each mode in (at most)
        four tiles.  Refuses to overwrite unless asked.
        """
        path = self._data_path(name)
        if name in self.catalog and not overwrite:
            raise StorageError(
                f"tensor {name!r} already stored (pass overwrite=True)"
            )
        if block_shape is None:
            block_shape = tuple(max(1, -(-s // 4)) for s in tensor.shape)
        layout = BlockedLayout(tensor.shape, block_shape)
        with _span(
            "store-put", "storage", tensor=name, nnz=tensor.nnz,
            shape=tensor.shape,
        ) as sp:
            order, starts, block_ids = sort_by_block(layout, tensor.coords)
            offsets = [int(i) for i in starts] + [tensor.nnz]
            row = 8 * len(tensor.shape)
            payload = (tensor.coords[order].tobytes()
                       + tensor.values[order].tobytes())
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            view = memoryview(payload)
            digests = [_block_digest(view, offsets, row, i)
                       for i in range(len(block_ids))]
            metrics = get_metrics()
            sizes = metrics.histogram("storage.block_bytes")
            for start, end in zip(offsets, offsets[1:]):
                sizes.observe((end - start) * (row + 8))
            entry = TensorEntry(
                name=name,
                shape=tensor.shape,
                block_shape=layout.block_shape,
                nnz=tensor.nnz,
                n_blocks=len(block_ids),
                block_ids=block_ids,
                offsets=offsets,
                digests=digests,
            )
            self.catalog.put(entry)
            sp.set(n_blocks=len(block_ids), bytes_written=len(payload))
            metrics.counter("storage.puts").inc()
            metrics.counter("storage.blocks_written").inc(len(block_ids))
            metrics.counter("storage.bytes_serialized").inc(len(payload))
        return entry

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def layout(self, name: str) -> BlockedLayout:
        entry = self.catalog.get(name)
        return BlockedLayout(entry.shape, entry.block_shape)

    def _read(
        self, entry: TensorEntry, positions: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Global coordinates and values of the blocks at ``positions``
        (indices into ``entry.block_ids``, ascending), every one of
        their digests checked before any cell is returned.

        Every read path resolves the catalog entry once per request
        and hands it here — the ``storage.catalog_lookups`` guard.
        """
        ndim = len(entry.shape)
        if not positions:
            return np.empty((0, ndim), np.int64), np.empty(0, np.float64)
        offsets, row = entry.offsets, 8 * ndim
        path = self._data_path(entry.name)
        metrics = get_metrics()

        def corrupt(position: int, reason: str) -> BlockCorruptionError:
            metrics.counter("storage.block_corruptions").inc()
            return BlockCorruptionError(
                entry.name, entry.block_ids[position], reason
            )

        injector = get_injector()
        if injector.enabled:
            # raise/crash/delay fire here; "corrupt" flips bytes inside
            # the block's coordinates so the digest check must catch it.
            for i in positions:
                injector.fire(
                    "storage.block-read", f"{entry.name}/{entry.block_ids[i]}",
                    path=path, byte_range=(offsets[i] * row,
                                           offsets[i + 1] * row),
                )
        expected = offsets[-1] * (row + 8)
        try:
            raw = np.asarray(np.memmap(path, dtype=np.uint8, mode="r"))
        except FileNotFoundError:
            raise corrupt(positions[0], "packed data file is missing") from None
        except (OSError, ValueError) as exc:
            raise corrupt(
                positions[0], f"unreadable data file: {exc}"
            ) from exc
        if raw.size != expected:
            raise corrupt(
                positions[0],
                f"unreadable data file: {raw.size} bytes, expected "
                f"{expected}",
            )
        view = memoryview(raw)
        for i in positions:
            if _block_digest(view, offsets, row, i) != entry.digests[i]:
                raise corrupt(i, "checksum mismatch")
        metrics.counter("storage.block_reads").inc(len(positions))
        cells = offsets[-1]
        coords = raw[:cells * row].view(np.int64).reshape(cells, ndim)
        values = raw[cells * row:].view(np.float64)
        spans = ([slice(0, cells)] if len(positions) == entry.n_blocks
                 else [slice(offsets[i], offsets[i + 1]) for i in positions])
        metrics.counter("storage.bytes_deserialized").inc(
            sum(s.stop - s.start for s in spans) * (row + 8)
        )
        return (np.concatenate([coords[s] for s in spans]),
                np.concatenate([values[s] for s in spans]))

    def get_block(self, name: str, block_id: BlockId) -> SparseTensor:
        """Load one block in local coordinates (an empty tensor if the
        block has no cells); a catalogued block that is missing or
        fails its digest raises :class:`BlockCorruptionError`."""
        entry = self.catalog.get(name)
        layout = BlockedLayout(entry.shape, entry.block_shape)
        block_id = tuple(int(i) for i in block_id)
        grid = layout.grid_shape
        if len(block_id) != len(grid) or any(
            not 0 <= b < g for b, g in zip(block_id, grid)
        ):
            raise StorageError(
                f"block id {block_id} outside grid {grid} of {name!r}"
            )
        position = bisect_left(entry.block_ids, block_id)
        stored = entry.block_ids[position:position + 1] == [block_id]
        coords, values = self._read(entry, [position] if stored else [])
        return SparseTensor(
            layout.block_extent(block_id),
            coords - layout.block_origin(block_id), values,
        )

    def iter_blocks(self, name: str) -> Iterator[Tuple[BlockId, SparseTensor]]:
        """Every stored block in local coordinates, in block-id order;
        all digests are checked before the first block is yielded."""
        entry = self.catalog.get(name)
        layout = BlockedLayout(entry.shape, entry.block_shape)
        coords, values = self._read(entry, range(entry.n_blocks))
        for block_id, start, end in zip(
            entry.block_ids, entry.offsets, entry.offsets[1:]
        ):
            yield block_id, SparseTensor(
                layout.block_extent(block_id),
                coords[start:end] - layout.block_origin(block_id),
                values[start:end],
            )

    def get(self, name: str) -> SparseTensor:
        """Load the full tensor."""
        with _span("store-get", "storage", tensor=name) as sp:
            entry = self.catalog.get(name)
            tensor = SparseTensor(
                entry.shape, *self._read(entry, range(entry.n_blocks))
            )
            sp.set(n_blocks=entry.n_blocks, nnz=tensor.nnz)
            get_metrics().counter("storage.gets").inc()
            return tensor

    def slice_query(self, name: str, mode: int, index: int) -> SparseTensor:
        """Cells on the hyperplane ``mode = index``, reading only the
        blocks that intersect it — the blocked layout's payoff."""
        with _span(
            "store-slice-query", "storage", tensor=name, mode=mode, index=index,
        ) as sp:
            entry = self.catalog.get(name)
            tile = BlockedLayout(entry.shape, entry.block_shape).slice_tile(
                mode, index
            )
            ids = np.asarray(entry.block_ids, np.int64).reshape(
                entry.n_blocks, len(entry.shape)
            )
            positions = np.flatnonzero(ids[:, mode] == tile).tolist()
            coords, values = self._read(entry, positions)
            on_slice = coords[:, mode] == index
            sp.set(blocks_read=len(positions))
            get_metrics().counter("storage.slice_queries").inc()
            return SparseTensor(
                entry.shape, coords[on_slice], values[on_slice]
            )

    # ------------------------------------------------------------------
    # manage
    # ------------------------------------------------------------------
    def delete(self, name: str) -> None:
        path = self._data_path(name)
        self.catalog.remove(name)
        path.unlink(missing_ok=True)
        if path.parent.exists() and not any(path.parent.iterdir()):
            path.parent.rmdir()

    def names(self):
        return self.catalog.names()
