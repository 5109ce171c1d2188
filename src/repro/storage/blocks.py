"""Hyper-rectangular blocking of sparse tensors.

The paper's related work (TensorDB [17], [22]) stores tensors as
chunked blocks so that decomposition operators touch only the blocks
they need.  Our store uses the same layout: the index space is tiled
by a fixed ``block_shape``; each non-empty tile holds its cells in
*local* coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..exceptions import StorageError
from ..tensor.sparse import SparseTensor

BlockId = Tuple[int, ...]


@dataclass(frozen=True)
class BlockedLayout:
    """Geometry of a blocked tensor.

    Attributes
    ----------
    shape:
        Full tensor shape.
    block_shape:
        Tile extent per mode (the last tile of a mode may be ragged).
    """

    shape: Tuple[int, ...]
    block_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        block_shape = tuple(int(b) for b in self.block_shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "block_shape", block_shape)
        if len(block_shape) != len(shape):
            raise StorageError(
                f"block shape {block_shape} order != tensor order {len(shape)}"
            )
        if any(b < 1 for b in block_shape):
            raise StorageError(f"block extents must be >= 1, got {block_shape}")

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        """Number of tiles per mode."""
        return tuple(
            -(-s // b) for s, b in zip(self.shape, self.block_shape)
        )

    @property
    def n_blocks(self) -> int:
        return int(np.prod(self.grid_shape))

    def block_of(self, coords: np.ndarray) -> np.ndarray:
        """Block id (per row) of full-space coordinates."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        return coords // np.asarray(self.block_shape, dtype=np.int64)

    def block_origin(self, block_id: BlockId) -> np.ndarray:
        return np.asarray(block_id, dtype=np.int64) * np.asarray(
            self.block_shape, dtype=np.int64
        )

    def block_extent(self, block_id: BlockId) -> Tuple[int, ...]:
        """Actual extent of a (possibly ragged, edge) block."""
        origin = self.block_origin(block_id)
        return tuple(
            int(min(b, s - o))
            for b, s, o in zip(self.block_shape, self.shape, origin)
        )

    def slice_tile(self, mode: int, index: int) -> int:
        """Tile index, along ``mode``, of the hyperplane ``mode = index``."""
        if not 0 <= mode < len(self.shape):
            raise StorageError(f"mode {mode} out of range")
        if not 0 <= index < self.shape[mode]:
            raise StorageError(f"index {index} out of range for mode {mode}")
        return index // self.block_shape[mode]

    def blocks_touching_slice(self, mode: int, index: int) -> Iterator[BlockId]:
        """Block ids intersecting the hyperplane ``mode = index``."""
        target = self.slice_tile(mode, index)
        for block in np.ndindex(*self.grid_shape):
            if block[mode] == target:
                yield tuple(int(b) for b in block)


def sort_by_block(
    layout: BlockedLayout, coords: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[BlockId]]:
    """Group cells by block: the stable order of ``coords`` rows by
    (C-order) block id, where each block's run starts in the sorted
    rows, and the non-empty block ids, ascending."""
    flat = np.ravel_multi_index(
        tuple(layout.block_of(coords).T), layout.grid_shape
    )
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    block_ids = [tuple(b) for b in np.stack(
        np.unravel_index(flat[starts], layout.grid_shape), axis=1
    ).tolist()]
    return order, starts, block_ids


def split_into_blocks(
    tensor: SparseTensor, layout: BlockedLayout
) -> Dict[BlockId, SparseTensor]:
    """Partition a sparse tensor's cells into per-block tensors.

    Each block tensor uses *local* coordinates relative to the block
    origin and the (possibly ragged) block extent as its shape; empty
    blocks are omitted.
    """
    if tensor.shape != layout.shape:
        raise StorageError(
            f"tensor shape {tensor.shape} != layout shape {layout.shape}"
        )
    order, starts, block_ids = sort_by_block(layout, tensor.coords)
    coords = tensor.coords[order]
    values = tensor.values[order]
    ends = np.append(starts[1:], tensor.nnz)
    blocks: Dict[BlockId, SparseTensor] = {}
    for block_id, start, end in zip(block_ids, starts, ends):
        origin = layout.block_origin(block_id)
        blocks[block_id] = SparseTensor(
            layout.block_extent(block_id),
            coords[start:end] - origin[None, :],
            values[start:end],
        )
    return blocks


def assemble_from_blocks(
    layout: BlockedLayout, blocks: Dict[BlockId, SparseTensor]
) -> SparseTensor:
    """Inverse of :func:`split_into_blocks`."""
    coords_parts = []
    values_parts = []
    for block_id, block in blocks.items():
        if block.nnz == 0:
            continue
        origin = layout.block_origin(block_id)
        coords_parts.append(block.coords + origin[None, :])
        values_parts.append(block.values)
    if not coords_parts:
        return SparseTensor(layout.shape)
    return SparseTensor(
        layout.shape,
        np.vstack(coords_parts),
        np.concatenate(values_parts),
    )
