"""Assembly of the forward-projection matrix ``A`` from ray traces.

``A`` has one row per sinogram entry (ray) and one column per tomogram
pixel; ``A[r, p]`` is the length of the intersection of ray ``r`` with
pixel ``p``.  Forward projection is ``y = A x`` and backprojection is
``x = A^T y`` (paper Section 2.2).

MemXCT builds this matrix once during preprocessing and reuses it every
iteration; the builder is the memoization step that the compute-centric
baseline refuses to pay for.

There is no global sort: a view's rays are consecutive rows, so each
view is column-sorted alone and its ``(column, length)`` pairs appended
to two growable streams.  Only the traced rays of the geometry's
:meth:`~repro.geometry.ScanGeometry.ray_group` are traced; ``A`` is
their expansion (:meth:`repro.sparse.OrbitMatrix.expand`), or, for a
plan of a scan with an 8-slot group, those rows ``Q`` are the plan —
written into arrays the caller may own: the plan cache passes the
pages of its archive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_row_index

from ..geometry import ParallelBeamGeometry, ScanGeometry
from ..parallel.backend import ExecutionBackend, SerialBackend
from ..sparse.csr import CSRMatrix, checked_rank
from ..sparse.orbit import OrbitMatrix, orbit_group
from .siddon import RaySegments, trace_angle, trace_rays
from .siddon3d import trace_rays_3d

__all__ = [
    "trace_view",
    "trace_view_range",
    "build_projection_matrix",
    "projection_matrix_stats",
]


def trace_view(
    geometry: ScanGeometry, angle_index: int, channels: int | None = None
) -> RaySegments:
    """Trace the first ``channels`` rays (default all) of one view
    (projection angle) of ``geometry``.

    The one place tracing depends on the kind of geometry.  Parallel
    rays of a view share a direction, which :func:`trace_angle`
    exploits; any other geometry hands over its ``ray_bundle`` of
    (origins, directions) and is traced ray by ray, in 2D or 3D
    according to the bundle's dimension.
    """
    if isinstance(geometry, ParallelBeamGeometry):
        return trace_angle(geometry, angle_index, channels)
    origins, directions = (part[:channels] for part in geometry.ray_bundle(angle_index))
    rays = geometry.ray_index(angle_index, np.arange(len(origins), dtype=np.int64))
    tracer = trace_rays_3d if directions.shape[1] == 3 else trace_rays
    return tracer(geometry.grid, origins, directions, rays)


def _traced_views(geometry: ScanGeometry) -> list[tuple[int, int]]:
    """``(view, channels)`` for each view holding a traced ray of the
    geometry's ray group — its first ``channels`` rays — in view order;
    every view whole without a group."""
    per_view = [geometry.num_channels] * geometry.num_angles
    group = geometry.ray_group()
    if group is not None:
        per_view = np.bincount(group.stored_rays() // per_view[0], minlength=len(per_view))
    return [(view, int(k)) for view, k in enumerate(per_view) if k]


class _ColumnStreams:
    """Two growable streams: int32 columns and ``dtype`` values.

    :meth:`append` writes at the running offset; a stream that is full
    grows through ``ndarray.resize`` — ``realloc``, which for a large
    block is ``mremap``: the touched pages keep their frames and only
    the new tail is touched.  ``resize`` zero-fills that tail, so the
    capacity stays an eighth ahead of the count, not a multiple.  The
    first capacity is at least glibc's largest mmap threshold (32 MB),
    so a stream is its own map even in a thread's arena — never a heap
    block whose growth leaves resident holes — and the untouched part
    of it is never resident.
    """

    def __init__(self, dtype, capacity: int = 1 << 23) -> None:
        self.count = 0
        self._streams = [np.empty(capacity, np.int32), np.empty(capacity, dtype)]

    def append(self, cols, vals) -> None:
        stop = self.count + len(vals)
        if stop > len(self._streams[0]):
            self._resize(stop + stop // 8)
        for stream, piece in zip(self._streams, (cols, vals)):
            stream[self.count : stop] = piece
        self.count = stop

    def _resize(self, capacity: int) -> None:
        for stream in self._streams:
            stream.resize(capacity, refcheck=False)

    def arrays(self) -> list[np.ndarray]:
        """The streams, trimmed to what was appended."""
        self._resize(self.count)
        return self._streams


def _sort_view(segs: RaySegments, first_ray: int, num_rays: int, col_rank, cbits: int, dtype):
    """One view's per-ray counts and its rays' ranked columns and values,
    each ray's columns ascending: one ``np.sort`` of a packed int64 key
    (ray, column, trace position; a stable argsort where it has no room
    for the position), a grazed corner's repeated pixel summed in trace
    order and in ``dtype``, as ``sum_duplicates`` sums it."""
    n = len(segs)
    key = segs.ray_index - first_ray
    key <<= cbits
    key |= segs.pixel_index if col_rank is None else col_rank[segs.pixel_index]
    vals = segs.length.astype(dtype)
    ibits = n.bit_length()
    if (num_rays - 1).bit_length() + cbits + ibits < 64:
        key <<= ibits
        key |= np.arange(n)
        key.sort()
        vals = vals[key & ((1 << ibits) - 1)]
        key >>= ibits
    else:
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
    head = np.ones(n, bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    if not head.all():
        starts = np.flatnonzero(head)
        key, vals = key[starts], np.add.reduceat(vals, starts)
    counts = np.diff(np.searchsorted(key, np.arange(num_rays + 1) << cbits))
    key &= (1 << cbits) - 1
    return counts, key.astype(np.int32), vals


def trace_view_range(task) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace a sequence of view prefixes into ``(counts, cols, vals)``.

    ``task`` is ``(geometry, views, col_rank, dtype)``: ``views`` a
    sequence of ``(view, channels)`` pairs — the first ``channels`` rays
    of each view — the rank an int32 array or ``None`` (row-major
    columns).  ``counts`` has one entry per traced ray, in their order;
    ``cols`` / ``vals`` are those rays' rows back to back, each row's
    columns ascending, 8 B per nonzero at float32.
    """
    geometry, views, col_rank, dtype = task
    cbits = (geometry.grid.num_pixels - 1).bit_length()
    counts = np.empty(sum(channels for _, channels in views), np.int64)
    streams = _ColumnStreams(dtype)
    at = 0
    for view, channels in views:
        counts[at : at + channels], cols, vals = _sort_view(
            trace_view(geometry, view, channels),
            int(geometry.ray_index(view, 0)), channels, col_rank, cbits, dtype,
        )
        streams.append(cols, vals)
        at += channels
    return (counts, *streams.arrays())


def _chunks(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous index ranges: ~4 per worker for load balance, one
    range — one set of streams, nothing to join — without workers."""
    chunks = min(count, workers * 4 if workers > 1 else 1)
    bounds = np.linspace(0, count, chunks + 1, dtype=np.int64)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def build_projection_matrix(
    geometry: ScanGeometry,
    dtype: np.dtype = np.float32,
    backend: ExecutionBackend | None = None,
    row_rank: np.ndarray | None = None,
    col_rank: np.ndarray | None = None,
    out=None,
    expand: bool = True,
) -> sp.csr_matrix:
    """Trace ``geometry``'s traced rays and assemble ``A`` in CSR form.

    The one assembly of a traced geometry.  Only the rays of its
    :meth:`~repro.geometry.ScanGeometry.ray_group` are traced (every
    ray without one), each row's columns ascending in ``col_rank``.
    Without a group, one compiled row gather (``csr_row_index``) takes
    each ranked row's traced row; with one, the traced rows ``Q`` are
    expanded through the group's maps (:meth:`OrbitMatrix.expand`).

    Parameters
    ----------
    geometry:
        The scan description — parallel-, fan- or cone-beam; the only
        kind-dependent step is :func:`trace_view`.
    dtype:
        Value dtype the lengths are traced in (the paper stores
        float32).
    backend:
        Optional execution backend that fans tracing out across
        workers, a chunk being a range of views.  Chunks are joined in
        view order, so the assembled matrix is bit-identical to the
        serial build.
    row_rank, col_rank:
        Domain orderings applied while tracing: ``row_rank[ray]`` is
        the row of a row-major sinogram index, ``col_rank[pixel]`` the
        column of a row-major tomogram index.  Each must be a bijection
        on its domain and is checked before any view is traced.
        ``None`` (default) keeps row-major order in that domain — the
        matrix the footprint tables and the ordering ablations start
        from, re-ordered afterwards with :meth:`CSRMatrix.permute`.
    out:
        ``out(nnz)`` returns the ``(indices, data)`` arrays — int32 and
        ``dtype`` or wider, ``nnz`` long — that the matrix is written
        into; fresh arrays by default.  The plan cache passes the
        reserved members of the archive it is assembling.  For ``Q`` it
        is called as ``out(nnz, rows)``.
    expand:
        ``False`` returns ``Q`` itself — one row per traced ray, in
        ascending ray order, of a geometry whose group a plan stores
        alone (:func:`~repro.sparse.orbit_group`).
    """
    shape = (geometry.num_rays, geometry.grid.num_pixels)
    if row_rank is not None:
        row_rank = checked_rank(row_rank, shape[0], "row_rank").astype(np.int32)
    if col_rank is not None:
        col_rank = checked_rank(col_rank, shape[1], "col_rank").astype(np.int32)
    if backend is None:
        backend = SerialBackend()
    group = geometry.ray_group()
    if not expand and orbit_group(geometry) is None:
        raise ValueError("only a geometry with an orbit group has a Q to return")
    views = _traced_views(geometry)
    tasks = [
        (geometry, views[lo:hi], col_rank, np.dtype(dtype))
        for lo, hi in _chunks(len(views), backend.workers)
    ]
    chunks = backend.map(trace_view_range, tasks)
    if len(chunks) != 1:  # workers' chunks, joined in view order
        chunks = [[np.concatenate(part) for part in zip(*chunks)]]
    ((counts, cols, vals),) = chunks
    nnz = len(vals)
    if nnz > np.iinfo(np.int32).max:
        raise OverflowError(f"{nnz} nonzeros do not fit the int32 row offsets of A")
    traced = np.zeros(len(counts) + 1, np.int32)
    np.cumsum(counts, out=traced[1:])
    rows = np.arange(shape[0], dtype=np.int32)
    if row_rank is not None:
        rows[row_rank] = rows.copy()  # the ray at each ranked row
    if not expand:
        shape, indptr = (len(counts), shape[1]), traced
        indices, data = (
            out(nnz, shape[0]) if out else (np.empty(nnz, np.int32), np.empty(nnz, dtype))
        )
        indices[:], data[:] = cols, vals
    elif group is not None:
        stored = CSRMatrix(traced, cols, vals, shape[1], vals.dtype.name)
        matrix = OrbitMatrix.from_group(stored, group, col_rank, rows).expand(out)
        indices, data, indptr = matrix.ind, matrix.val, matrix.displ
    else:
        indptr = np.zeros(shape[0] + 1, np.int32)
        np.cumsum(counts[rows], out=indptr[1:])
        indices, data = out(nnz) if out else (np.empty(nnz, np.int32), np.empty(nnz, dtype))
        csr_row_index(
            shape[0], rows, traced, cols, vals.astype(data.dtype, copy=False), indices, data
        )
    csr = sp.csr_matrix((data, indices, indptr), shape=shape)
    csr.has_canonical_format = True  # columns ascending, repeats summed per ray
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
