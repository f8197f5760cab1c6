"""Tests for forward-projection matrix assembly."""

import numpy as np
import pytest

from repro.geometry import ParallelBeamGeometry
from repro.parallel.backend import ThreadBackend
from repro.trace import (
    build_projection_matrix,
    matrix_builder,
    projection_matrix_stats,
    trace_angle,
)
from repro.trace.siddon import RaySegments


class TestBuildProjectionMatrix:
    def test_shape(self, small_geometry):
        A = build_projection_matrix(small_geometry)
        assert A.shape == (small_geometry.num_rays, small_geometry.grid.num_pixels)

    def test_matches_traced_segments(self):
        g = ParallelBeamGeometry(10, 8)
        A = build_projection_matrix(g)
        dense = A.toarray()
        for ai in range(g.num_angles):
            segs = trace_angle(g, ai)
            ref = np.zeros_like(dense)
            np.add.at(ref, (segs.ray_index, segs.pixel_index), segs.length)
            rows = slice(ai * 8, (ai + 1) * 8)
            np.testing.assert_allclose(dense[rows], ref[rows], atol=1e-6)

    def test_forward_projection_of_point(self):
        """A single bright pixel projects to a sinusoid: exactly one
        response band per angle."""
        g = ParallelBeamGeometry(16, 12)
        A = build_projection_matrix(g)
        x = np.zeros(144, dtype=np.float32)
        x[6 * 12 + 3] = 1.0
        sino = (A @ x).reshape(16, 12)
        hits_per_angle = (sino > 0).sum(axis=1)
        assert (hits_per_angle >= 1).all()
        assert (hits_per_angle <= 3).all()  # a point spans <= 2-3 channels

    def test_dtype(self):
        g = ParallelBeamGeometry(6, 6)
        assert build_projection_matrix(g).dtype == np.float32
        assert build_projection_matrix(g, dtype=np.float64).dtype == np.float64

    def test_nonnegative_values(self, small_matrix):
        assert (small_matrix.val >= 0).all()

    def test_column_streams_forced_through_many_growths_give_the_same_matrix(
        self, small_geometry, monkeypatch
    ):
        """From a one-pair capacity every view grows the two streams;
        what they hold is the views' pieces back to back, and serial
        (one range) and threads (ranges joined) agree with the default
        build array for array."""
        want = build_projection_matrix(small_geometry)
        growths = []

        class Tiny(matrix_builder._ColumnStreams):
            def __init__(self, dtype):
                super().__init__(dtype, capacity=1)

            def _resize(self, capacity):
                growths.append(capacity)
                super()._resize(capacity)

        monkeypatch.setattr(matrix_builder, "_ColumnStreams", Tiny)
        views = [(view, small_geometry.num_channels) for view in range(small_geometry.num_angles)]
        task = (small_geometry, views, None, np.dtype(np.float32))
        counts, cols, vals = matrix_builder.trace_view_range(task)
        assert len(growths) > 10 and growths[-1] == want.nnz  # the trim
        assert (cols.dtype, vals.dtype) == (np.int32, np.float32)
        assert np.array_equal(counts, np.diff(want.indptr))
        assert np.array_equal(cols, want.indices)
        assert np.array_equal(vals, want.data)
        for backend in (None, ThreadBackend(2)):
            got = build_projection_matrix(small_geometry, backend=backend)
            for name in ("indptr", "indices", "data"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("wide", [False, True])
    def test_caller_owned_outputs_are_what_the_sort_fills(self, small_geometry, wide):
        """``out(nnz)`` is asked once, for exactly the traced count; the
        matrix lives in what it returned — widened on the way in when
        the value array is wider than the traced dtype."""
        want = build_projection_matrix(small_geometry)
        handed = []

        def out(nnz):
            handed.append(
                (np.full(nnz, -1, np.int32), np.full(nnz, np.nan, np.float64 if wide else np.float32))
            )
            return handed[-1]

        got = build_projection_matrix(small_geometry, out=out)
        ((indices, data),) = handed
        assert np.shares_memory(got.indices, indices) and np.shares_memory(got.data, data)
        assert got.nnz == indices.size == want.nnz
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert data.dtype == (np.float64 if wide else np.float32)
        assert np.array_equal(data, want.data)  # float32 lengths, exactly

    def test_a_repeated_triplet_is_summed(self, small_geometry, monkeypatch):
        """No geometry in the suite traces one twice, so one is made by
        hand: the first segment of view 0, emitted again.  Ray ``(0, 0)``
        is also ray ``(0, N-1)`` (the half turn) and, in view M/2, rays
        ``(M/2, 0)`` and ``(M/2, N-1)`` (the diagonal maps view 0 onto
        view M/2), so one value changes in each of those four rays."""
        want = build_projection_matrix(small_geometry)
        monkeypatch.setattr(matrix_builder, "trace_view", repeat_first_segment)
        got = build_projection_matrix(small_geometry)
        assert got.nnz == want.nnz and got.has_canonical_format
        assert np.array_equal(got.indices, want.indices)
        changed = np.flatnonzero(got.data != want.data)
        group = small_geometry.ray_group()
        n = small_geometry.num_channels
        assert np.unique(np.flatnonzero(group.source < n) // n).tolist() == [0, 18]
        assert np.count_nonzero(group.source == 0) == changed.size == 4
        assert (got.data[changed] == np.float32(2) * want.data[changed]).all()


    def test_a_key_too_wide_to_pack_sorts_the_same(self):
        """Where ray, column and position bits overflow 63, a stable
        argsort orders the view: same counts, columns and summed values
        (a 256-channel view with a repeat, its columns given 40 bits)."""
        geometry = ParallelBeamGeometry(4, 256)
        segs = repeat_first_segment(geometry, 0)
        rank = np.random.default_rng(3).permutation(geometry.grid.num_pixels).astype(np.int32)
        packed = matrix_builder._sort_view(segs, 0, 256, rank, 16, np.dtype(np.float32))
        wide = matrix_builder._sort_view(segs, 0, 256, rank, 40, np.dtype(np.float32))
        assert 8 + 40 + len(segs).bit_length() >= 64  # the fallback runs
        assert packed[2].size == len(segs) - 1  # the repeat was summed
        for got, want in zip(wide, packed):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def repeat_first_segment(geometry, angle_index, channels=None):
    """``trace_view`` with view 0's first ``(ray, pixel, length)`` twice."""
    segs = trace_angle(geometry, angle_index, channels)
    if angle_index:
        return segs
    return RaySegments(
        np.append(segs.ray_index, segs.ray_index[0]),
        np.append(segs.pixel_index, segs.pixel_index[0]),
        np.append(segs.length, segs.length[0]),
    )


class TestStats:
    def test_stats_fields(self, small_geometry):
        A = build_projection_matrix(small_geometry)
        st = projection_matrix_stats(A)
        assert st["rows"] == small_geometry.num_rays
        assert st["cols"] == small_geometry.grid.num_pixels
        assert st["nnz"] == A.nnz
        assert 0 < st["row_nnz_mean"] <= st["row_nnz_max"]

    def test_chord_constant_is_scale_invariant(self):
        """nnz ~ c * M * N^2 with the same c across scales — the law the
        dataset footprint extrapolation relies on (DESIGN.md)."""
        constants = []
        for m, n in [(24, 16), (48, 32), (96, 64)]:
            A = build_projection_matrix(ParallelBeamGeometry(m, n))
            constants.append(projection_matrix_stats(A)["chord_constant"])
        assert max(constants) - min(constants) < 0.08
        assert 1.0 < constants[-1] < 1.35  # ~4/pi average chord factor

    def test_max_row_nnz_bounded(self, small_geometry):
        """A ray crosses at most 2N-1 pixels of an N x N grid."""
        A = build_projection_matrix(small_geometry)
        st = projection_matrix_stats(A)
        assert st["row_nnz_max"] <= 2 * small_geometry.grid.n - 1
