"""Assembly of the forward-projection matrix ``A`` from ray traces.

``A`` has one row per sinogram entry (ray) and one column per tomogram
pixel; ``A[r, p]`` is the length of the intersection of ray ``r`` with
pixel ``p``.  Forward projection is ``y = A x`` and backprojection is
``x = A^T y`` (paper Section 2.2).

MemXCT builds this matrix once during preprocessing and reuses it every
iteration; the builder is the memoization step that the compute-centric
baseline refuses to pay for.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.sparse as sp

from ..geometry import ParallelBeamGeometry, ScanGeometry
from ..parallel.backend import ExecutionBackend, SerialBackend
from ..sparse.csr import checked_rank
from .siddon import RaySegments, trace_angle, trace_rays
from .siddon3d import trace_rays_3d

__all__ = [
    "trace_view",
    "build_projection_matrix",
    "projection_matrix_stats",
]


def trace_view(geometry: ScanGeometry, angle_index: int) -> RaySegments:
    """Trace every ray of one view (projection angle) of ``geometry``.

    The one place tracing depends on the kind of geometry.  Parallel
    rays of a view share a direction, which :func:`trace_angle`
    exploits; any other geometry hands over its ``ray_bundle`` of
    (origins, directions) and is traced ray by ray, in 2D or 3D
    according to the bundle's dimension.
    """
    if isinstance(geometry, ParallelBeamGeometry):
        return trace_angle(geometry, angle_index)
    origins, directions = geometry.ray_bundle(angle_index)
    channels = np.arange(geometry.num_channels, dtype=np.int64)
    tracer = trace_rays_3d if directions.shape[1] == 3 else trace_rays
    return tracer(
        geometry.grid, origins, directions, geometry.ray_index(angle_index, channels)
    )


def _trace_view_chunk(task) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Trace a contiguous view range: one ``(rows, cols, vals)`` per view.

    ``task`` is ``(geometry, start, stop, row_rank, col_rank, dtype)``
    with int32 rank arrays.  Each view's segments are narrowed as they
    are traced — ``row_rank[ray]``, ``col_rank[pixel]`` (the row-major
    indices themselves, as int32, where a rank is ``None``) and
    ``dtype`` lengths, 12 B per triplet at float32 — and left per view,
    so the caller's one ``np.concatenate`` per stream is the only copy.
    The list opens with an empty triplet: an empty range concatenates
    to empty streams.

    Module-level so the process backend can pickle it; the geometry is
    a small frozen dataclass and a rank array is 4 B per cell, so
    shipping them per task is cheap.
    """
    geometry, start, stop, row_rank, col_rank, dtype = task
    views = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, dtype))]
    for angle_index in range(start, stop):
        segs = trace_view(geometry, angle_index)
        ray, pixel = segs.ray_index, segs.pixel_index
        views.append(
            (
                ray.astype(np.int32) if row_rank is None else row_rank[ray],
                pixel.astype(np.int32) if col_rank is None else col_rank[pixel],
                segs.length.astype(dtype),
            )
        )
    return views


def _angle_chunks(num_angles: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous angle ranges, ~4 per worker for load balance."""
    chunks = min(num_angles, max(1, workers * 4))
    bounds = np.linspace(0, num_angles, chunks + 1, dtype=np.int64)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def build_projection_matrix(
    geometry: ScanGeometry,
    dtype: np.dtype = np.float32,
    backend: ExecutionBackend | None = None,
    row_rank: np.ndarray | None = None,
    col_rank: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Trace every ray of ``geometry`` and assemble ``A`` in CSR form.

    The one assembly of a traced geometry: every view's triplets are
    emitted in the coordinates the caller asks for, and scipy's compiled
    ``coo -> csr`` (a counting sort by row, then an index sort within
    each row) yields the matrix in those coordinates — rows by
    ``row_rank``, each row's columns ascending in ``col_rank``.

    Parameters
    ----------
    geometry:
        The scan description — parallel-, fan- or cone-beam; the only
        kind-dependent step is :func:`trace_view`.
    dtype:
        Value dtype of the matrix (the paper stores float32 lengths).
    backend:
        Optional execution backend that fans per-view tracing out
        across workers.  Chunks are concatenated in angle order, so
        the assembled matrix is bit-identical to the serial build.
    row_rank, col_rank:
        Domain orderings applied while tracing: ``row_rank[ray]`` is
        the row of a row-major sinogram index, ``col_rank[pixel]`` the
        column of a row-major tomogram index.  Each must be a bijection
        on its domain and is checked before any view is traced.
        ``None`` (default) keeps row-major order in that domain — the
        matrix the footprint tables and the ordering ablations start
        from, re-ordered afterwards with :meth:`CSRMatrix.permute`.
    """
    shape = (geometry.num_rays, geometry.grid.num_pixels)
    if row_rank is not None:
        row_rank = checked_rank(row_rank, shape[0], "row_rank").astype(np.int32)
    if col_rank is not None:
        col_rank = checked_rank(col_rank, shape[1], "col_rank").astype(np.int32)
    if backend is None:
        backend = SerialBackend()
    tasks = [
        (geometry, start, stop, row_rank, col_rank, np.dtype(dtype))
        for start, stop in _angle_chunks(geometry.num_angles, backend.workers)
    ]
    # The per-view pieces are temporaries of this expression on purpose:
    # only the three concatenated streams (12 B per triplet) live through
    # tocsr(), which reads them in place.
    rows, cols, vals = (
        np.concatenate(part)
        for part in zip(*chain.from_iterable(backend.map(_trace_view_chunk, tasks)))
    )
    csr = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    csr.sum_duplicates()  # sorts each row's indices, sums corner-grazing repeats
    return csr


def projection_matrix_stats(matrix: sp.csr_matrix) -> dict[str, float]:
    """Summary statistics used by footprint and performance models.

    Returns nnz, rows/cols, mean and max nonzeros per row, and the
    chord constant ``c = nnz / (M_rows * sqrt(cols))`` that lets the
    dataset descriptors extrapolate nnz to full paper sizes.
    """
    nnz = int(matrix.nnz)
    nrows, ncols = matrix.shape
    row_nnz = np.diff(matrix.indptr)
    side = int(round(np.sqrt(ncols)))
    return {
        "nnz": nnz,
        "rows": int(nrows),
        "cols": int(ncols),
        "row_nnz_mean": float(row_nnz.mean()) if nrows else 0.0,
        "row_nnz_max": int(row_nnz.max()) if nrows else 0,
        "chord_constant": nnz / (nrows * side) if nrows and side else 0.0,
    }
