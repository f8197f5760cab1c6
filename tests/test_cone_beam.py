"""Tests for the 3D cone-beam geometry and its pipeline integration.

The central claim: cone-beam is *just another geometry* to the
memoized pipeline.  The 3D Siddon tracer emits the same COO→CSR
structures, the layout rectangles make the 2D orderings apply
unchanged, and the resulting operator satisfies the same contracts the
parallel-beam one does — exact adjointness in fp64, bit-identical
kernels where they share the reduction path, bit-identical serial vs
multi-worker tracing, and lossless save/load + plan-cache round trips.
"""

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.geometry import ConeBeamGeometry, Grid3D
from repro.phantoms import ellipsoid_volume
from repro.solvers import cgls
from repro.trace import build_projection_matrix, trace_rays_3d

from .conftest import with_layouts


@pytest.fixture(scope="module")
def cone_geometry() -> ConeBeamGeometry:
    """12 views on a 6x8 detector over an 8x8x6 voxel grid."""
    return ConeBeamGeometry(
        num_angles=12, det_rows=6, det_cols=8, source_distance=24.0
    )


@pytest.fixture(scope="module")
def cone_operator(cone_geometry):
    op, _ = preprocess(
        cone_geometry,
        config=OperatorConfig(kernel="csr", dtype="float64"),
        cache="off",
    )
    return op


class TestGrid3D:
    def test_shape_and_counts(self):
        g = Grid3D(8, 6)
        assert g.shape == (6, 8, 8)
        assert g.num_voxels == 8 * 8 * 6
        assert g.num_pixels == g.num_voxels  # 2D duck-typing alias

    def test_voxel_index_matches_reshape(self):
        g = Grid3D(4, 3)
        vol = np.arange(g.num_voxels).reshape(g.shape)
        for iz in range(3):
            for iy in range(4):
                for ix in range(4):
                    assert vol[iz, iy, ix] == g.voxel_index(ix, iy, iz)

    def test_planes_cover_extent(self):
        g = Grid3D(8, 6, voxel_size=2.0)
        assert g.x_planes()[0] == -g.half_extent
        assert g.x_planes()[-1] == g.half_extent
        assert g.z_planes()[0] == -g.half_extent_z
        assert g.z_planes()[-1] == g.half_extent_z

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid3D(0, 4)
        with pytest.raises(ValueError):
            Grid3D(4, 4, voxel_size=0.0)


class TestConeBeamGeometry:
    def test_defaults(self, cone_geometry):
        g = cone_geometry
        assert g.grid.shape == (6, 8, 8)
        assert g.detector_distance == g.source_distance
        assert g.magnification == 2.0
        assert g.det_spacing == 2.0  # magnification * voxel_size
        assert g.sinogram_shape == (12, 6, 8)
        assert g.num_rays == 12 * 6 * 8

    def test_layout_rectangles(self, cone_geometry):
        g = cone_geometry
        rows, cols = g.tomo_layout_shape
        assert rows * cols == g.grid.num_voxels
        rows, cols = g.sino_layout_shape
        assert rows * cols == g.num_rays

    def test_source_too_close_rejected(self):
        # 8x8 grid has transaxial half-diagonal 4*sqrt(2) ≈ 5.66.
        with pytest.raises(ValueError, match="clear the grid"):
            ConeBeamGeometry(8, 4, 8, source_distance=5.0)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            ConeBeamGeometry(8, 4, 8, source_distance=24.0, angle_range=0.0)
        with pytest.raises(ValueError):
            ConeBeamGeometry(0, 4, 8, source_distance=24.0)

    def test_rays_point_at_detector(self, cone_geometry):
        origins, directions = cone_geometry.ray_bundle(3)
        assert origins.shape == directions.shape == (48, 3)
        np.testing.assert_allclose(
            np.linalg.norm(directions, axis=1), 1.0, atol=1e-12
        )
        # Marching from the source to the detector plane lands on the
        # stored pixel centres.
        pixels = cone_geometry.detector_pixels(3)
        t = np.linalg.norm(pixels - origins, axis=1)
        np.testing.assert_allclose(
            origins + t[:, None] * directions, pixels, atol=1e-10
        )

    def test_fingerprint_fields_stable(self, cone_geometry):
        fields = cone_geometry.fingerprint_fields()
        assert fields["kind"] == "cone"
        assert fields == cone_geometry.fingerprint_fields()


class TestSiddon3D:
    def test_chord_lengths_bounded(self, cone_geometry):
        g = cone_geometry
        diagonal = np.sqrt(
            2 * g.grid.extent**2 + g.grid.extent_z**2
        )
        for view in (0, 5):
            origins, directions = g.ray_bundle(view)
            segments = trace_rays_3d(g.grid, origins, directions, np.arange(48))
            per_ray = np.zeros(48)
            np.add.at(per_ray, segments.ray_index, segments.length)
            assert per_ray.max() <= diagonal + 1e-9

    def test_axial_ray_sums_column(self):
        # A ray through the volume centre along x crosses exactly n
        # voxels with unit chords.
        grid = Grid3D(8, 4)
        origins = np.array([[-100.0, 0.5, 0.5]])
        directions = np.array([[1.0, 0.0, 0.0]])
        segments = trace_rays_3d(grid, origins, directions, np.array([0]))
        assert segments.length.size == 8
        np.testing.assert_allclose(segments.length, 1.0, atol=1e-12)

    def test_miss_traces_nothing(self):
        grid = Grid3D(8, 4)
        origins = np.array([[-100.0, 0.0, 50.0]])  # far above the grid
        directions = np.array([[1.0, 0.0, 0.0]])
        segments = trace_rays_3d(grid, origins, directions, np.array([0]))
        assert segments.length.size == 0


class TestConeOperator:
    def test_adjointness_fp64(self, cone_operator, rng):
        """<A x, y> == <x, A^T y> to near machine precision in fp64."""
        op = cone_operator
        x = rng.standard_normal(op.num_pixels)
        y = rng.standard_normal(op.num_rays)
        lhs = float(op.forward(x) @ y)
        rhs = float(x @ op.adjoint(y))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_volume_roundtrip(self, cone_operator):
        vol = ellipsoid_volume(8, 6)
        ordered = cone_operator.volume_to_ordered(vol)
        assert np.array_equal(cone_operator.ordered_to_volume(ordered), vol)

    def test_projection_roundtrip(self, cone_operator, rng):
        stack = rng.standard_normal(cone_operator.geometry.sinogram_shape)
        ordered = cone_operator.projections_to_ordered(stack)
        assert np.array_equal(
            cone_operator.ordered_to_projections(ordered), stack
        )

    def test_reconstruction_quality(self, cone_geometry):
        """CGLS on noiseless cone data recovers the phantom."""
        op, _ = preprocess(
            ConeBeamGeometry(
                num_angles=24, det_rows=6, det_cols=12, source_distance=36.0
            ),
            config=OperatorConfig(kernel="csr"),
            cache="off",
        )
        vol = ellipsoid_volume(12, 6)
        y = op.forward(op.volume_to_ordered(vol))
        result = cgls(op, y, num_iterations=40)
        recon = op.ordered_to_volume(result.x)
        err = np.linalg.norm(recon - vol) / np.linalg.norm(vol)
        assert err < 0.25


class TestKernelConsistency:
    """Cross-layout agreement of the cone operator.

    Every kernel adds a row's products one after the other in stored
    order (single-stage buffered is the CSR kernel, ELL's padding adds
    zeros), so csr and buffered agree **bitwise** here.  ELL is held to
    fp64 rounding in this file; ``test_ell.py`` and
    ``test_layout_conformance.py`` pin it bitwise too.
    """

    @pytest.fixture(scope="class")
    def kernel_ops(self, cone_geometry):
        """The buffered and ELL operators run their layout pairs, handed in."""
        ops = {}
        for kernel in ("csr", "buffered", "ell"):
            ops[kernel] = with_layouts(preprocess(
                cone_geometry,
                config=OperatorConfig(
                    kernel=kernel,
                    partition_size=16,
                    buffer_bytes=128 * 1024,
                    dtype="float64",
                ),
                cache="off",
            )[0])
        assert ops["buffered"].buffered_forward is not None
        assert ops["ell"].ell_forward is not None
        return ops

    def test_buffered_bitwise_equals_csr(self, kernel_ops, rng):
        x = rng.standard_normal(kernel_ops["csr"].num_pixels)
        y = rng.standard_normal(kernel_ops["csr"].num_rays)
        assert np.array_equal(
            kernel_ops["csr"].forward(x), kernel_ops["buffered"].forward(x)
        )
        assert np.array_equal(
            kernel_ops["csr"].adjoint(y), kernel_ops["buffered"].adjoint(y)
        )

    def test_ell_matches_csr_to_rounding(self, kernel_ops, rng):
        x = rng.standard_normal(kernel_ops["csr"].num_pixels)
        y = rng.standard_normal(kernel_ops["csr"].num_rays)
        np.testing.assert_allclose(
            kernel_ops["csr"].forward(x),
            kernel_ops["ell"].forward(x),
            rtol=1e-12,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            kernel_ops["csr"].adjoint(y),
            kernel_ops["ell"].adjoint(y),
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_batch_bitwise_equals_single(self, kernel_ops, rng, kernel):
        op = kernel_ops[kernel]
        X = rng.standard_normal((op.num_pixels, 3))
        Y = op.forward_batch(X)
        for j in range(3):
            assert np.array_equal(Y[:, j], op.forward(X[:, j]))


class TestParallelTracing:
    def test_two_workers_bit_identical(self, cone_geometry, monkeypatch):
        """Fan-out tracing reassembles to the exact serial matrix."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = build_projection_matrix(cone_geometry)
        from repro.parallel.backend import make_backend

        backend = make_backend(2, "thread")
        try:
            fanned = build_projection_matrix(cone_geometry, backend=backend)
        finally:
            backend.close()
        assert serial.shape == fanned.shape
        assert np.array_equal(serial.indptr, fanned.indptr)
        assert np.array_equal(serial.indices, fanned.indices)
        assert np.array_equal(serial.data, fanned.data)


class TestPersistence:
    def test_save_load_roundtrip(self, cone_operator, tmp_path, rng):
        from repro.io import load_operator, save_operator

        path = tmp_path / "cone.npz"
        save_operator(path, cone_operator)
        loaded = load_operator(path)
        assert loaded.geometry == cone_operator.geometry
        x = rng.standard_normal(cone_operator.num_pixels)
        assert np.array_equal(loaded.forward(x), cone_operator.forward(x))

    def test_plan_cache_roundtrip(self, cone_geometry, tmp_path, rng):
        config = OperatorConfig(kernel="csr", dtype="float64")
        cold, r1 = preprocess(cone_geometry, config=config, cache=tmp_path)
        warm, r2 = preprocess(cone_geometry, config=config, cache=tmp_path)
        assert not r1.cache_hit and r2.cache_hit
        assert r1.cache_key == r2.cache_key
        x = rng.standard_normal(cold.num_pixels)
        assert np.array_equal(cold.forward(x), warm.forward(x))

    def test_fingerprint_distinguishes_cone_params(self, cone_geometry):
        from repro.cache import plan_fingerprint

        base = plan_fingerprint(cone_geometry)
        moved = ConeBeamGeometry(
            num_angles=12, det_rows=6, det_cols=8, source_distance=25.0
        )
        assert plan_fingerprint(moved) != base
