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

import numpy as np
import scipy.sparse as sp

from ..geometry import ParallelBeamGeometry, ScanGeometry
from ..parallel.backend import ExecutionBackend, SerialBackend
from .siddon import RaySegments, trace_angle, trace_rays
from .siddon3d import trace_rays_3d

__all__ = [
    "trace_view",
    "build_projection_matrix",
    "build_cone_projection_matrix",
    "build_fan_projection_matrix",
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


def _trace_view_chunk(
    task: tuple[ScanGeometry, int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace a contiguous (non-empty) view range, returning (rows, cols, vals).

    Module-level so the process backend can pickle it; the geometry is
    a small frozen dataclass, so shipping it per task is cheap.
    """
    geometry, start, stop = task
    views = [trace_view(geometry, angle_index) for angle_index in range(start, stop)]
    return (
        np.concatenate([segs.ray_index for segs in views]),
        np.concatenate([segs.pixel_index for segs in views]),
        np.concatenate([segs.length for segs in views]),
    )


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
) -> sp.csr_matrix:
    """Trace every ray of ``geometry`` and assemble ``A`` in CSR form.

    Rows follow row-major sinogram order (angle-major), columns follow
    row-major tomogram order; domain orderings are applied later by
    permuting rows/columns (see :mod:`repro.core.operator`), which keeps
    the tracer independent of the layout policy.

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
    """
    if backend is None:
        backend = SerialBackend()
    tasks = [
        (geometry, start, stop)
        for start, stop in _angle_chunks(geometry.num_angles, backend.workers)
    ]
    chunks = backend.map(_trace_view_chunk, tasks)
    rows, cols, vals = zip(*chunks)
    # The concatenated int64/float64 triplets are temporaries of this
    # call on purpose: coo_matrix keeps its own (narrower) copies, and
    # at 256x256 a named triplet would hold ~0.5 GB through tocsr().
    coo = sp.coo_matrix(
        (
            np.concatenate(vals).astype(dtype, copy=False),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(geometry.num_rays, geometry.grid.num_pixels),
    )
    csr = coo.tocsr()  # sums duplicate entries, sorts column indices
    csr.sum_duplicates()
    return csr


#: The fan- and cone-beam builders are the one builder; the names stay
#: for callers that spell out the geometry they trace.
build_cone_projection_matrix = build_projection_matrix
build_fan_projection_matrix = build_projection_matrix


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
