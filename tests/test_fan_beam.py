"""Tests for the fan-beam geometry extension."""

import numpy as np
import pytest

from repro.geometry import FanBeamGeometry, Grid2D, ParallelBeamGeometry
from repro.trace import build_projection_matrix, trace_rays


class TestFanBeamGeometry:
    def test_shapes(self):
        g = FanBeamGeometry(36, 24, source_distance=60.0)
        assert g.sinogram_shape == (36, 24)
        assert g.num_rays == 864

    def test_angles_cover_full_turn(self):
        g = FanBeamGeometry(4, 8, source_distance=30.0)
        np.testing.assert_allclose(g.angles(), [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_default_fan_covers_circle(self):
        g = FanBeamGeometry(4, 16, source_distance=40.0)
        assert g.fan_angle == pytest.approx(2 * np.arcsin(8 / 40.0))

    def test_source_positions_on_circle(self):
        g = FanBeamGeometry(8, 8, source_distance=25.0)
        for ai in range(8):
            assert np.linalg.norm(g.source_position(ai)) == pytest.approx(25.0)

    def test_central_ray_points_at_axis(self):
        g = FanBeamGeometry(8, 9, source_distance=25.0)  # odd channels -> no exact centre
        d = g.ray_directions(0)
        src = g.source_position(0)
        # The middle channel's angle is the smallest |gamma|.
        mid = np.argmin(np.abs(g.channel_angles()))
        cross = src[0] * d[mid, 1] - src[1] * d[mid, 0]
        assert abs(cross) < 25.0 * np.sin(g.fan_angle / 9)

    def test_directions_are_unit(self):
        g = FanBeamGeometry(12, 8, source_distance=30.0)
        for ai in (0, 5, 11):
            d = g.ray_directions(ai)
            np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0)

    def test_source_must_clear_grid(self):
        with pytest.raises(ValueError):
            FanBeamGeometry(4, 16, source_distance=8.0)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FanBeamGeometry(0, 8, source_distance=30.0)
        with pytest.raises(ValueError):
            FanBeamGeometry(4, 8, source_distance=30.0, fan_angle=4.0)


class TestFanBeamMatrix:
    def test_chords_bounded(self):
        g = FanBeamGeometry(30, 20, source_distance=50.0)
        A = build_projection_matrix(g)
        y = A @ np.ones(A.shape[1], dtype=np.float32)
        assert y.max() <= 20 * np.sqrt(2.0) + 1e-5
        assert (A.data > 0).all()

    def test_central_rays_cover_center(self):
        g = FanBeamGeometry(16, 16, source_distance=40.0)
        A = build_projection_matrix(g)
        x = np.zeros(256, dtype=np.float32)
        x[8 * 16 + 8] = 1.0  # near-centre pixel
        y = (A @ x).reshape(16, 16)
        assert (y.sum(axis=1) > 0).all()  # every fan sees the centre

    def test_converges_to_parallel_beam(self):
        """At enormous source distance the fan's rays become parallel:
        the central ray matches the corresponding parallel-beam ray."""
        n = 16
        gp = ParallelBeamGeometry(8, n)
        Ap = build_projection_matrix(gp).toarray()
        gf = FanBeamGeometry(16, n, source_distance=1e7)
        Af = build_projection_matrix(gf).toarray()
        # Fan at rotation angle pi shoots along +x through the centre
        # like the parallel projection at theta = pi/2.
        fan_row = Af[8 * n + n // 2]
        par_row = Ap[4 * n + n // 2]
        assert (fan_row > 0).sum() == (par_row > 0).sum() == n

    def test_reconstruction_through_standard_pipeline(self):
        """The fan matrix drops into the same solver machinery."""
        from repro.phantoms import shepp_logan
        from repro.solvers import cgls
        from repro.sparse import CSRMatrix, scan_transpose

        g = FanBeamGeometry(60, 32, source_distance=80.0)
        A = CSRMatrix.from_scipy(build_projection_matrix(g))
        AT = scan_transpose(A)

        class Op:
            num_rays, num_pixels = A.num_rows, A.num_cols
            forward = staticmethod(lambda x: A.spmv(np.asarray(x, dtype=np.float32)))
            adjoint = staticmethod(lambda y: AT.spmv(np.asarray(y, dtype=np.float32)))

        truth = shepp_logan(32).reshape(-1)
        y = A.spmv(truth.astype(np.float32))
        res = cgls(Op(), y, num_iterations=40)
        err = np.linalg.norm(res.x - truth) / np.linalg.norm(truth)
        assert err < 0.25


class TestTraceRays:
    def test_validation(self):
        grid = Grid2D(8)
        with pytest.raises(ValueError):
            trace_rays(grid, np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            trace_rays(grid, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2))

    def test_matches_parallel_tracer(self):
        """Feeding parallel rays through the generic tracer reproduces
        trace_angle exactly."""
        from repro.trace import trace_angle

        g = ParallelBeamGeometry(12, 10)
        for ai in (0, 3, 7):
            ref = trace_angle(g, ai)
            origins = g.ray_origins(ai)
            d = g.ray_directions()[ai]
            directions = np.broadcast_to(d, origins.shape)
            ids = g.ray_index(np.full(10, ai), np.arange(10))
            got = trace_rays(g.grid, origins, directions, ids)
            ref_map = dict(zip(zip(ref.ray_index, ref.pixel_index), ref.length))
            got_map = dict(zip(zip(got.ray_index, got.pixel_index), got.length))
            assert ref_map.keys() == got_map.keys()
            for key in ref_map:
                assert got_map[key] == pytest.approx(ref_map[key], abs=1e-9)

    def test_ray_missing_grid(self):
        grid = Grid2D(4)
        segs = trace_rays(
            grid,
            np.array([[10.0, 10.0]]),
            np.array([[0.0, 1.0]]),
            np.array([0]),
        )
        assert len(segs) == 0
