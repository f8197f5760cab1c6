"""Tests for the beamline workload scenarios.

Sparse-view and limited-angle geometries must be *exact* row subsets
of the full scan (same angles, bitwise), the try-center sweep's
batched solve must be bit-identical to looped single solves, and the
entropy score must actually find a known injected axis shift.
"""

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.geometry import ConeBeamGeometry, ParallelBeamGeometry
from repro.phantoms import shepp_logan
from repro.scenarios import (
    center_slab,
    limited_angle_geometry,
    limited_angle_sinogram,
    nominal_center,
    reconstruct_scenario,
    reconstruction_entropy,
    shift_sinogram,
    sparse_view_geometry,
    sparse_view_sinogram,
    try_center,
)
from repro.solvers import cgls, cgls_batch


@pytest.fixture(scope="module")
def scan():
    """Full scan: geometry, operator, phantom, noiseless sinogram."""
    geometry = ParallelBeamGeometry(48, 32)
    op, _ = preprocess(geometry, config=OperatorConfig(kernel="csr"), cache="off")
    phantom = shepp_logan(32)
    sinogram = op.project_image(phantom)
    return geometry, op, phantom, sinogram


class TestSparseView:
    def test_exact_angle_subset(self, scan):
        geometry, *_ = scan
        sub = sparse_view_geometry(geometry, 4)
        assert sub.num_angles == 12
        assert np.array_equal(sub.angles(), geometry.angles()[::4])
        assert sub.grid is geometry.grid

    def test_sinogram_rows_match(self, scan):
        _, _, _, sinogram = scan
        assert np.array_equal(
            sparse_view_sinogram(sinogram, 4), sinogram[::4]
        )

    def test_rejects_non_divisor(self, scan):
        geometry, *_ = scan
        with pytest.raises(ValueError, match="does not divide"):
            sparse_view_geometry(geometry, 5)

    def test_cone_geometry_supported(self):
        cone = ConeBeamGeometry(12, 4, 8, source_distance=24.0)
        sub = sparse_view_geometry(cone, 3)
        assert sub.num_angles == 4
        assert np.array_equal(sub.angles(), cone.angles()[::3])

    def test_subset_rays_match_full_system(self, scan):
        """The degraded forward model is a row subset of the full one."""
        geometry, op, phantom, _ = scan
        sub = sparse_view_geometry(geometry, 4)
        sub_op, _ = preprocess(
            sub, config=OperatorConfig(kernel="csr"), cache="off"
        )
        full = op.project_image(phantom)
        np.testing.assert_allclose(
            sub_op.project_image(phantom), full[::4], rtol=1e-5, atol=1e-5
        )


class TestLimitedAngle:
    def test_exact_prefix_angles(self, scan):
        geometry, *_ = scan
        sub = limited_angle_geometry(geometry, 0.5)
        assert sub.num_angles == 24
        np.testing.assert_allclose(
            sub.angles(), geometry.angles()[:24], atol=1e-15
        )

    def test_sinogram_prefix(self, scan):
        *_, sinogram = scan
        assert np.array_equal(
            limited_angle_sinogram(sinogram, 0.5), sinogram[:24]
        )

    def test_fraction_validation(self, scan):
        geometry, *_ = scan
        with pytest.raises(ValueError):
            limited_angle_geometry(geometry, 0.0)
        with pytest.raises(ValueError):
            limited_angle_geometry(geometry, 1.5)
        with pytest.raises(ValueError, match="keeps zero"):
            limited_angle_geometry(geometry, 0.01)


class TestReconstructScenario:
    def test_sparse_view_tv_beats_cgls(self, scan):
        geometry, _, phantom, sinogram = scan
        common = dict(
            keep_every=4,
            num_iterations=12,
            config=OperatorConfig(kernel="csr"),
            cache="off",
        )
        tv = reconstruct_scenario(
            geometry, sinogram, "sparse-view", solver="tv", strength=0.02, **common
        )
        plain = reconstruct_scenario(
            geometry, sinogram, "sparse-view", solver="cg", **common
        )
        err_tv = np.linalg.norm(tv.image - phantom)
        err_plain = np.linalg.norm(plain.image - phantom)
        assert err_tv < err_plain
        assert tv.views_kept == 12 and tv.views_dropped == 36

    def test_limited_angle_runs(self, scan):
        geometry, _, phantom, sinogram = scan
        result = reconstruct_scenario(
            geometry,
            sinogram,
            "limited-angle",
            fraction=0.5,
            solver="gradient",
            strength=0.05,
            num_iterations=12,
            config=OperatorConfig(kernel="csr"),
            cache="off",
        )
        assert result.image.shape == phantom.shape
        assert result.views_kept == 24
        err = np.linalg.norm(result.image - phantom) / np.linalg.norm(phantom)
        assert err < 0.6  # half the views still reconstructs coarsely

    def test_unknown_kind_rejected(self, scan):
        geometry, _, _, sinogram = scan
        with pytest.raises(ValueError, match="unknown scenario kind"):
            reconstruct_scenario(geometry, sinogram, "full")

    def test_counters(self, scan):
        from repro import obs

        geometry, _, _, sinogram = scan
        with obs.capture() as cap:
            reconstruct_scenario(
                geometry,
                sinogram,
                "sparse-view",
                keep_every=4,
                solver="cg",
                num_iterations=3,
                config=OperatorConfig(kernel="csr"),
                cache="off",
            )
        assert cap.total(obs.SCENARIO_RUNS) == 1
        assert cap.total(obs.SCENARIO_VIEWS_DROPPED) == 36


class TestShiftSinogram:
    def test_zero_shift_is_identity(self, scan):
        *_, sinogram = scan
        assert np.array_equal(shift_sinogram(sinogram, 0.0), sinogram)

    def test_integer_shift_moves_columns(self, scan):
        *_, sinogram = scan
        shifted = shift_sinogram(sinogram, 2.0)
        assert np.allclose(shifted[:, :-2], sinogram[:, 2:])
        assert np.allclose(shifted[:, -2:], 0.0)

    def test_opposite_shifts_invert(self, scan):
        *_, sinogram = scan
        inner = shift_sinogram(shift_sinogram(sinogram, 1.0), -1.0)
        assert np.allclose(inner[:, 1:], sinogram[:, 1:])


class TestTryCenter:
    def test_batched_bitwise_equals_looped(self, scan):
        """The sweep's one batched solve == S independent solves."""
        _, op, _, sinogram = scan
        centers = nominal_center(op.geometry) + np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        slab = center_slab(op, sinogram, centers)
        batch = cgls_batch(op, slab, num_iterations=8)
        for j in range(centers.size):
            single = cgls(op, slab[:, j], num_iterations=8)
            assert np.array_equal(batch.column(j).x, single.x)

    def test_recovers_injected_shift(self, scan):
        geometry, op, _, sinogram = scan
        true_shift = 1.5
        off_center = shift_sinogram(sinogram, -true_shift)
        centers = nominal_center(geometry) + np.arange(-3.0, 3.25, 0.5)
        result = try_center(
            geometry, off_center, centers, num_iterations=8, operator=op
        )
        assert result.best_center == pytest.approx(
            nominal_center(geometry) + true_shift, abs=0.5
        )
        assert result.scores.shape == centers.shape
        assert result.images.shape == (centers.size, 32, 32)

    def test_counters(self, scan):
        from repro import obs

        geometry, op, _, sinogram = scan
        centers = nominal_center(geometry) + np.array([0.0, 1.0])
        with obs.capture() as cap:
            try_center(geometry, sinogram, centers, num_iterations=2, operator=op)
        assert cap.total(obs.SCENARIO_RUNS) == 1
        assert cap.total(obs.SCENARIO_CENTER_CANDIDATES) == 2

    def test_empty_centers_rejected(self, scan):
        geometry, op, _, sinogram = scan
        with pytest.raises(ValueError, match="non-empty"):
            try_center(geometry, sinogram, [], operator=op)


class TestEntropyScore:
    def test_sharp_beats_smeared(self, rng):
        sharp = np.zeros((32, 32))
        sharp[10:20, 10:20] = 1.0
        smeared = rng.uniform(0.0, 1.0, size=(32, 32))
        assert reconstruction_entropy(sharp) < reconstruction_entropy(smeared)

    def test_constant_image(self):
        assert reconstruction_entropy(np.full((8, 8), 3.0)) == 0.0

    def test_non_finite(self):
        img = np.ones((8, 8))
        img[0, 0] = np.nan
        assert reconstruction_entropy(img) == float("inf")
