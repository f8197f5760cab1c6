"""Cross-module integration tests: full pipelines end to end."""

import numpy as np
import pytest

from repro.core import OperatorConfig, get_dataset, preprocess, reconstruct
from repro.dist import distributed_preprocess
from repro.pipeline import reconstruct_stack
from repro.solvers import cgls, fbp, icd, lcurve_corner, overfit_onset
from repro.utils import psnr


@pytest.fixture(scope="module")
def shale_problem():
    spec = get_dataset("RDS1").scaled(0.04)  # 60 x 82
    g = spec.geometry()
    op, report = preprocess(g)
    sino, truth = spec.sinogram(op, incident_photons=1e5, seed=0)
    return spec, g, op, report, sino, truth


class TestPipelineMatrix:
    """Every (ordering, solver) combination reconstructs acceptably."""

    @pytest.mark.parametrize("ordering", ["row-major", "hilbert", "pseudo-hilbert"])
    @pytest.mark.parametrize("solver", ["cg", "sirt"])
    def test_ordering_solver_grid(self, shale_problem, ordering, solver):
        spec, g, _, _, sino, truth = shale_problem
        iterations = 20 if solver == "cg" else 60
        res = reconstruct(sino, g, solver=solver, iterations=iterations, ordering=ordering)
        assert psnr(res.image, truth) > 18.0

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_kernel_grid(self, shale_problem, kernel):
        spec, g, _, _, sino, truth = shale_problem
        cfg = OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=2048)
        res = reconstruct(sino, g, iterations=15, config=cfg)
        assert psnr(res.image, truth) > 18.0


class TestDistributedPipeline:
    def test_distributed_preprocess_to_reconstruction(self, shale_problem):
        """The memory-scalable path: parallel tracing -> distributed
        operator -> CG -> image, no global matrix ever built."""
        spec, g, op, _, sino, truth = shale_problem
        dist_op = distributed_preprocess(g, 4)
        y = dist_op.sino_dec.ordering.to_ordered(sino)
        res = cgls(dist_op, y, num_iterations=20)
        image = dist_op.tomo_dec.ordering.from_ordered(res.x)
        assert psnr(image, truth) > 18.0

    def test_matches_serial_pipeline(self, shale_problem):
        spec, g, op, _, sino, truth = shale_problem
        serial = reconstruct(sino, g, iterations=10, operator=op)
        dist = reconstruct(sino, g, iterations=10, operator=op, num_ranks=6)
        assert abs(psnr(serial.image, truth) - psnr(dist.image, truth)) < 0.5


class TestHybridSolvers:
    def test_fbp_warm_start_accelerates_icd(self, shale_problem):
        """FBP initialization + ICD refinement (the classic MBIR recipe
        enabled by the memoized column access)."""
        spec, g, op, _, sino, truth = shale_problem
        y = op.sinogram_to_ordered(sino)
        x_fbp = op.image_to_ordered(fbp(op, sino, window="hann"))
        cold = icd(op.matrix, op.transpose, y, num_sweeps=2)
        warm = icd(op.matrix, op.transpose, y, num_sweeps=2, x0=x_fbp)
        assert warm.residual_norms[-1] < cold.residual_norms[-1]
        # Two sweeps on an undersampled scan won't reach CG quality,
        # but the image must already be recognisable.
        assert psnr(op.ordered_to_image(warm.x), truth) > 13.0

    def test_early_stopping_heuristics_agree(self, shale_problem):
        spec, g, op, _, sino, truth = shale_problem
        y = op.sinogram_to_ordered(sino)
        res = cgls(op, y, num_iterations=80)
        r, s = res.lcurve()
        stop = overfit_onset(r, s, residual_tol=0.01, growth_tol=1e-4)
        corner = lcurve_corner(r, s)
        # Both heuristics propose stopping well before the budget.
        assert stop < 80
        assert 0 <= corner < 80


class TestVolumePipeline:
    def test_volume_with_saved_operator(self, shale_problem, tmp_path):
        """Preprocess -> save -> load in a 'second process' -> batch
        reconstruction — the beamline workflow."""
        from repro.io import load_operator, save_operator

        spec, g, op, report, _, _ = shale_problem
        path = tmp_path / "op.npz"
        save_operator(path, op)
        loaded = load_operator(path)

        slices = np.stack(
            [spec.sinogram(loaded, incident_photons=1e6, seed=s)[0] for s in range(2)]
        )
        result = reconstruct_stack(
            slices, g, operator=loaded, iterations=10
        )
        assert result.volume.shape[0] == 2
        truth0 = spec.phantom(seed=0)
        assert psnr(result.volume[0], truth0) > 18.0
