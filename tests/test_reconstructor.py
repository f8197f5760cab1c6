"""End-to-end tests for the high-level reconstruction API."""

import numpy as np
import pytest

from repro.core import OperatorConfig, get_dataset, preprocess, reconstruct
from repro.utils import psnr


@pytest.fixture(scope="module")
def problem():
    """A scaled ADS1 problem with a preprocessed operator and noisy data."""
    spec = get_dataset("ADS1").scaled(0.25)  # 90 x 64
    g = spec.geometry()
    op, report = preprocess(g)
    sino, truth = spec.sinogram(op, incident_photons=1e6, seed=0)
    return g, op, report, sino, truth


class TestReconstruct:
    def test_cg_reconstructs_phantom(self, problem):
        g, op, _, sino, truth = problem
        res = reconstruct(sino, g, solver="cg", iterations=30, operator=op)
        assert res.image.shape == truth.shape
        assert psnr(res.image, truth) > 25.0

    def test_cg_beats_sirt_at_equal_iterations(self, problem):
        """Paper Fig. 8: CG converges much faster than SIRT."""
        g, op, _, sino, truth = problem
        res_cg = reconstruct(sino, g, solver="cg", iterations=15, operator=op)
        res_sirt = reconstruct(sino, g, solver="sirt", iterations=15, operator=op)
        assert res_cg.solve.residual_norms[-1] < res_sirt.solve.residual_norms[-1]
        assert psnr(res_cg.image, truth) > psnr(res_sirt.image, truth)

    def test_sgd_solver_runs(self, problem):
        g, op, _, sino, _ = problem
        res = reconstruct(
            sino, g, solver="sgd", iterations=10, operator=op, batch_fraction=0.2
        )
        assert res.solve.residual_norms[-1] < res.solve.residual_norms[0]

    def test_distributed_matches_serial(self, problem):
        g, op, _, sino, _ = problem
        serial = reconstruct(sino, g, solver="cg", iterations=8, operator=op)
        dist = reconstruct(sino, g, solver="cg", iterations=8, operator=op, num_ranks=4)
        assert dist.num_ranks == 4
        scale = np.abs(serial.image).max()
        np.testing.assert_allclose(dist.image, serial.image, atol=2e-2 * scale)

    def test_geometry_inferred_from_sinogram(self, problem):
        _, _, _, sino, _ = problem
        res = reconstruct(sino, solver="cg", iterations=2)
        assert res.image.shape == (sino.shape[1], sino.shape[1])

    def test_per_iteration_seconds(self, problem):
        g, op, _, sino, _ = problem
        res = reconstruct(sino, g, iterations=5, operator=op)
        assert res.per_iteration_seconds == pytest.approx(
            res.solve_seconds / res.solve.iterations
        )

    def test_kernel_configs_give_same_image(self, problem):
        g, _, _, sino, _ = problem
        images = []
        for kernel in ("csr", "buffered"):
            cfg = OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=2048)
            res = reconstruct(sino, g, iterations=10, config=cfg)
            images.append(res.image)
        scale = np.abs(images[0]).max()
        np.testing.assert_allclose(images[0], images[1], atol=5e-3 * scale)


class TestValidation:
    def test_non_2d_sinogram_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(np.zeros(10))

    def test_shape_mismatch_rejected(self, problem):
        g, _, _, _, _ = problem
        with pytest.raises(ValueError):
            reconstruct(np.zeros((3, 3)), g)

    def test_unknown_solver_rejected(self, problem):
        g, op, _, sino, _ = problem
        with pytest.raises(ValueError, match="unknown solver"):
            reconstruct(sino, g, solver="bogus", operator=op)

    def test_invalid_ranks_rejected(self, problem):
        g, op, _, sino, _ = problem
        with pytest.raises(ValueError):
            reconstruct(sino, g, operator=op, num_ranks=0)


class TestDirectAndMatrixSolvers:
    def test_fbp_through_reconstruct(self, problem):
        g, op, _, sino, truth = problem
        res = reconstruct(sino, g, solver="fbp", operator=op, window="hann")
        assert res.solver == "fbp"
        assert res.solve.iterations == 1
        assert res.solve.stop_reason == "direct solve"
        from repro.utils import psnr

        assert psnr(res.image, truth) > 14.0

    def test_icd_through_reconstruct(self, problem):
        g, op, _, sino, truth = problem
        res = reconstruct(sino, g, solver="icd", iterations=3, operator=op)
        assert res.solve.iterations == 3
        r = res.solve.residual_norms
        assert r[-1] < r[0]

    def test_fbp_rejects_distributed(self, problem):
        g, op, _, sino, _ = problem
        with pytest.raises(ValueError):
            reconstruct(sino, g, solver="fbp", operator=op, num_ranks=2)

    def test_cg_beats_fbp_on_noisy_data(self, problem):
        """The motivating comparison, now one flag apart."""
        from repro.utils import psnr

        g, op, _, _, truth = problem
        from repro.core import get_dataset

        spec = get_dataset("ADS1").scaled(0.25)
        noisy, _ = spec.sinogram(op, incident_photons=500, seed=3)
        res_fbp = reconstruct(noisy, g, solver="fbp", operator=op, window="hann")
        res_cg = reconstruct(noisy, g, solver="cg", iterations=8, operator=op)
        assert psnr(res_cg.image, truth) > psnr(res_fbp.image, truth)
