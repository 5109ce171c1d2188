"""Factor-space query evaluation: answers from Tucker factors alone.

The TuckerMPI observation this module operationalises: once an
ensemble lives as ``[G; U^(1), ..., U^(N)]``, any cell value is a tiny
core×factor-row contraction and any hyperplane is a one-row TTM —
recoverable at a fraction of dense cost, so the full tensor never
needs to exist.  :meth:`TuckerTensor.reconstruct` is metered
(``tucker.reconstructs``) precisely so serving tests can assert this
engine leaves the counter untouched.

Three query shapes:

``point``
    ``x[i_1, ..., i_N] = G ×_1 u^(1)_{i_1} ... ×_N u^(N)_{i_N}`` —
    the core contracted with one row of each factor.  The batched form
    evaluates B points as *one* contraction chain over a (B, r, ...)
    accumulator, which is what the server's request coalescing buys.
``slice``
    The dense hyperplane ``mode = index``: contract the core with the
    single factor row of the sliced mode, then apply the remaining
    factors — cost ``O(prod(ranks) + slice size × rank)`` instead of
    ``O(prod(shape))``.
``top-k anomalies``
    Residual scoring against the block store: every *simulated* cell's
    stored value minus its factor prediction, scored in fixed chunks
    (batched point evaluation per chunk), keeping only the k largest
    residuals.  Large residuals mark cells the decomposition's
    dominant patterns cannot explain — the ensemble's anomalies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import QueryError
from ..observability import get_metrics, span as _span
from ..tensor.tucker import TuckerTensor
from ..tensor.ttm import ttm

#: Cells scored per batched point evaluation in a top-k scan: larger
#: chunks buy no speed and only raise peak memory.
TOPK_CHUNK = 1024


def _check_coords(shape: Tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    if coords.ndim != 2 or coords.shape[1] != len(shape):
        raise QueryError(
            f"point index needs {len(shape)} coordinates, got "
            f"shape {coords.shape}"
        )
    upper = np.asarray(shape, dtype=np.int64)
    if coords.size and ((coords < 0).any() or (coords >= upper).any()):
        bad = coords[((coords < 0) | (coords >= upper)).any(axis=1)][0]
        raise QueryError(
            f"index {tuple(int(i) for i in bad)} out of bounds for "
            f"shape {shape}"
        )
    return coords


class FactorEngine:
    """Evaluate point/slice/anomaly queries from one Tucker decomposition.

    Parameters
    ----------
    tucker:
        The decomposition to serve from; its factors are the only
        state this engine touches.
    study:
        Label stamped onto spans/metrics (the catalog key).
    """

    def __init__(self, tucker: TuckerTensor, study: str = ""):
        self.tucker = tucker
        self.study = study

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.tucker.shape

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def point_batch(self, coords) -> np.ndarray:
        """Values of B cells as one batched contraction chain.

        ``coords`` is ``(B, N)`` integer indices; returns ``(B,)``
        float values.  The accumulator starts as the core contracted
        with the mode-0 factor rows and loses one rank axis per
        remaining mode — never materialising anything larger than
        ``B × prod(ranks[1:])``.
        """
        coords = _check_coords(self.shape, coords)
        t = self.tucker
        with _span(
            "serving-point", "serving", study=self.study,
            batch=coords.shape[0],
        ):
            if coords.shape[0] == 0:
                return np.empty((0,), dtype=np.float64)
            rows = t.factors[0][coords[:, 0], :]           # (B, r_0)
            acc = np.tensordot(rows, t.core, axes=([1], [0]))
            for mode in range(1, t.ndim):
                rows = t.factors[mode][coords[:, mode], :]  # (B, r_mode)
                acc = np.einsum("bi...,bi->b...", acc, rows)
            get_metrics().counter("serving.points_evaluated").inc(
                coords.shape[0]
            )
            return np.asarray(acc, dtype=np.float64)

    def point(self, index: Sequence[int]) -> float:
        """One cell value, ``G`` contracted with one row per factor."""
        return float(self.point_batch(np.asarray(index)[None, :])[0])

    # ------------------------------------------------------------------
    # slice queries
    # ------------------------------------------------------------------
    def slice(self, mode: int, index: int) -> np.ndarray:
        """The dense hyperplane ``mode = index`` (that mode dropped).

        One factor-row TTM: the sliced mode collapses to a single row
        contraction on the *core*, then the remaining factors expand
        the reduced core to the slice's full extent.
        """
        t = self.tucker
        if not 0 <= int(mode) < t.ndim:
            raise QueryError(
                f"mode {mode} out of range for {t.ndim} modes"
            )
        mode = int(mode)
        if not 0 <= int(index) < self.shape[mode]:
            raise QueryError(
                f"index {index} out of range for mode {mode} "
                f"(size {self.shape[mode]})"
            )
        index = int(index)
        with _span(
            "serving-slice", "serving", study=self.study, mode=mode,
            index=index,
        ):
            row = t.factors[mode][index]                    # (r_mode,)
            reduced = np.tensordot(t.core, row, axes=([mode], [0]))
            out = reduced
            remaining = [f for m, f in enumerate(t.factors) if m != mode]
            for m, factor in enumerate(remaining):
                out = ttm(out, factor, m)
            get_metrics().counter("serving.slices_evaluated").inc()
            return out

    # ------------------------------------------------------------------
    # anomaly queries
    # ------------------------------------------------------------------
    def topk_anomalies(
        self,
        store,
        name: str,
        k: int,
        mode: Optional[int] = None,
        index: Optional[int] = None,
    ) -> List[Tuple[Tuple[int, ...], float, float, float]]:
        """The k simulated cells the factors explain worst.

        Reads the study's stored cells out of ``store`` (a
        :class:`~repro.storage.BlockTensorStore`) in one verified read
        — the whole tensor when ``mode``/``index`` are omitted, one
        ``slice_query`` hyperplane otherwise — then scores
        ``|stored - predicted|`` in chunks of :data:`TOPK_CHUNK` cells
        with batched point evaluation, keeping a running top-k, so the
        scoring's working set is one chunk plus k candidates.

        Returns ``[(index, stored, predicted, residual), ...]`` sorted
        by residual, largest first.
        """
        if k < 1:
            raise QueryError(f"top-k needs k >= 1, got {k}")
        with _span(
            "serving-topk", "serving", study=self.study, k=k,
        ) as sp:
            if mode is not None and index is not None:
                sparse = store.slice_query(name, mode=mode, index=index)
            else:
                sparse = store.get(name)
            best_coords = np.empty((0, len(self.shape)), dtype=np.int64)
            best_stored = np.empty((0,), dtype=np.float64)
            best_predicted = np.empty((0,), dtype=np.float64)
            best_residual = np.empty((0,), dtype=np.float64)
            for start in range(0, sparse.nnz, TOPK_CHUNK):
                coords = sparse.coords[start:start + TOPK_CHUNK]
                stored = sparse.values[start:start + TOPK_CHUNK]
                predicted = self.point_batch(coords)
                residual = np.abs(stored - predicted)
                cand_coords = np.vstack([best_coords, coords])
                cand_stored = np.concatenate([best_stored, stored])
                cand_predicted = np.concatenate([best_predicted, predicted])
                cand_residual = np.concatenate([best_residual, residual])
                if cand_residual.shape[0] > k:
                    keep = np.argpartition(cand_residual, -k)[-k:]
                else:
                    keep = np.arange(cand_residual.shape[0])
                best_coords = cand_coords[keep]
                best_stored = cand_stored[keep]
                best_predicted = cand_predicted[keep]
                best_residual = cand_residual[keep]
            sp.set(cells_scored=sparse.nnz)
            get_metrics().counter("serving.cells_scored").inc(sparse.nnz)
            order = np.argsort(-best_residual, kind="stable")
            return [
                (
                    tuple(int(i) for i in best_coords[pos]),
                    float(best_stored[pos]),
                    float(best_predicted[pos]),
                    float(best_residual[pos]),
                )
                for pos in order
            ]
