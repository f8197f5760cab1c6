"""The per-view builder against the assembly it replaced.

The oracle is the old path, kept here in ten lines: every view's
triplets appended into three streams, scipy's compiled ``coo -> csr``,
then ``sum_duplicates``.  The builder must reproduce it bit for bit —
``indptr``, ``indices`` and the value bytes — for every kind of
geometry, with and without ranks, in both precisions, serial and
fanned out over threads or processes.

Both go through one per-view function, ``trace_view``, and through the
geometry's ray group: on a half-turn parallel scan every ray is a copy
of a traced ray (a view's orbit source, and for even ``M`` the first
half of its channels), pixel-mapped.  The oracle copies each ray's
triplets from its traced ray's; the builder sorts the traced rows and
expands them — so an edit to view 1 reaches every ray that copies one
of view 1's, in both.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr

from repro.geometry import ConeBeamGeometry, FanBeamGeometry, ParallelBeamGeometry
from repro.parallel.backend import make_backend, parse_workers
from repro.trace import build_projection_matrix, matrix_builder
from repro.trace.siddon import RaySegments

GEOMETRIES = {
    "parallel": ParallelBeamGeometry(16, 12),
    "parallel-odd": ParallelBeamGeometry(17, 13),
    "fan": FanBeamGeometry(15, 11, source_distance=40.0),
    "cone": ConeBeamGeometry(7, 5, 6, source_distance=30.0),
}


def coo_assembly(geometry, dtype, row_rank, col_rank) -> sp.csr_matrix:
    """Streams -> ``coo_tocsr`` -> ``sum_duplicates``: the old builder,
    each ray's triplets copied from its traced ray's through the group."""
    views = [matrix_builder.trace_view(geometry, a) for a in range(geometry.num_angles)]
    ray, pixel, length = (np.concatenate([getattr(v, f) for v in views]) for f in FIELDS)
    group = geometry.ray_group()
    if group is not None:
        order = np.argsort(ray, kind="stable")  # an edit may append out of ray order
        ray, pixel, length = ray[order], pixel[order], length[order]
        bounds = np.searchsorted(ray, np.arange(geometry.num_rays + 1))
        counts = np.diff(bounds)[group.source]
        take = np.concatenate([np.arange(bounds[s], bounds[s] + c) for s, c in zip(group.source, counts)])
        ray = np.repeat(np.arange(geometry.num_rays), counts)
        pixel = group.maps[np.repeat(group.slot, counts), pixel[take]]
        length = length[take]
    rows = (ray if row_rank is None else row_rank[ray]).astype(np.int32)
    cols = (pixel if col_rank is None else col_rank[pixel]).astype(np.int32)
    vals = length.astype(dtype)
    shape, nnz = (geometry.num_rays, geometry.grid.num_pixels), len(vals)
    indptr, indices = np.empty(shape[0] + 1, np.int32), np.empty(nnz, np.int32)
    data = np.empty(nnz, dtype)
    coo_tocsr(*shape, nnz, rows, cols, vals, indptr, indices, data)
    csr = sp.csr_matrix((data, indices, indptr), shape=shape)
    csr.sum_duplicates()
    return csr


FIELDS = ("ray_index", "pixel_index", "length")
_trace_view = matrix_builder.trace_view


def view_one(edit):
    """``trace_view`` with view 1's segments passed through ``edit``."""

    def trace_view(geometry, angle_index, channels=None):
        segs = _trace_view(geometry, angle_index, channels)
        return edit(segs) if angle_index == 1 else segs

    return trace_view


TRACERS = {
    "traced": None,
    # every ray of the view misses the grid
    "empty-view": view_one(lambda s: RaySegments(*(getattr(s, f)[:0] for f in FIELDS))),
    # a grazed corner: the view's first segment, traced twice
    "repeated-segment": view_one(
        lambda s: RaySegments(*(np.append(getattr(s, f), getattr(s, f)[0]) for f in FIELDS))
    ),
}


def _ranks(geometry, ranked):
    if not ranked:
        return None, None
    rng = np.random.default_rng(geometry.num_rays)
    return rng.permutation(geometry.num_rays), rng.permutation(geometry.grid.num_pixels)


@pytest.mark.parametrize("workers", [None, "2", "thread:3"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ranked", [False, True], ids=["unranked", "ranked"])
@pytest.mark.parametrize("tracer", list(TRACERS))
@pytest.mark.parametrize("kind", list(GEOMETRIES))
def test_builder_is_the_coo_assembly_bit_for_bit(
    kind, tracer, ranked, dtype, workers, monkeypatch
):
    geometry = GEOMETRIES[kind]
    if TRACERS[tracer] is not None:
        monkeypatch.setattr(matrix_builder, "trace_view", TRACERS[tracer])
    row_rank, col_rank = _ranks(geometry, ranked)
    want = coo_assembly(geometry, dtype, row_rank, col_rank)
    backend = make_backend(*parse_workers(workers))
    try:
        got = build_projection_matrix(
            geometry, dtype=dtype, backend=backend, row_rank=row_rank, col_rank=col_rank
        )
    finally:
        backend.close()
    assert got.shape == want.shape and got.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    views = [matrix_builder.trace_view(geometry, a) for a in range(geometry.num_angles)]
    group = geometry.ray_group()
    source = np.arange(geometry.num_rays) if group is None else group.source
    traced = np.bincount(np.concatenate([v.ray_index for v in views]), minlength=len(source))
    # the repeat (view 1's last segment) was summed, once in each ray
    # that copies its ray
    copies = np.count_nonzero(np.isin(source, views[1].ray_index[-1:]))
    assert got.nnz == traced[source].sum() - (tracer == "repeated-segment") * copies
    if tracer == "empty-view":
        rays = slice(geometry.num_channels, 2 * geometry.num_channels)
        assert not np.diff(coo_assembly(geometry, dtype, None, None).indptr)[rays].any()
