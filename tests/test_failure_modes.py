"""Failure-injection tests: corrupted inputs, degenerate problems,
and pathological data must fail loudly or degrade gracefully."""

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess, reconstruct
from repro.geometry import Grid2D, ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.solvers import cgls, sirt
from repro.sparse import CSRMatrix, build_buffered


class TestDegenerateProblems:
    def test_single_angle_scan(self):
        """One projection: wildly underdetermined but must not crash."""
        g = ParallelBeamGeometry(1, 16)
        op, _ = preprocess(g)
        y = np.ones(op.num_rays)
        res = cgls(op, op.sinogram_to_ordered(y.reshape(1, 16)), num_iterations=5)
        assert np.isfinite(res.x).all()

    def test_tiny_grid(self):
        g = ParallelBeamGeometry(4, 4)
        op, _ = preprocess(g)
        assert op.matrix.nnz > 0
        assert np.isfinite(op.forward(np.ones(16, dtype=np.float32))).all()

    def test_detector_wider_than_grid(self):
        """Edge channels miss the grid entirely -> empty matrix rows."""
        g = ParallelBeamGeometry(8, 24, grid=Grid2D(8))
        op, _ = preprocess(g)
        row_nnz = op.matrix.row_nnz()
        assert (row_nnz == 0).any()
        # Empty rows must not break any solver.
        res = sirt(op, np.ones(op.num_rays), num_iterations=3)
        assert np.isfinite(res.x).all()

    def test_all_zero_sinogram(self):
        g = ParallelBeamGeometry(10, 8)
        op, _ = preprocess(g)
        res = reconstruct(np.zeros((10, 8)), g, iterations=5, operator=op)
        np.testing.assert_allclose(res.image, 0.0)


class TestPathologicalData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sinogram_is_refused(self, bad):
        """Garbage in is refused at the door, as the job server does,
        not turned into a NaN image."""
        g = ParallelBeamGeometry(10, 8)
        op, _ = preprocess(g)
        sino = np.zeros((10, 8))
        sino[0, 0] = bad
        with pytest.raises(ValueError, match="sinogram contains non-finite values"):
            reconstruct(sino, g, iterations=2, operator=op)

    def test_huge_dynamic_range(self):
        g = ParallelBeamGeometry(20, 16)
        op, _ = preprocess(g)
        img = np.zeros((16, 16))
        img[8, 8] = 1e8
        sino = op.project_image(img)
        res = reconstruct(sino, g, iterations=20, operator=op)
        assert np.isfinite(res.image).all()
        peak = np.unravel_index(np.argmax(res.image), res.image.shape)
        assert abs(peak[0] - 8) <= 1 and abs(peak[1] - 8) <= 1

    def test_negative_sinogram_values(self):
        """Normalization glitches produce small negatives; solvers must
        cope (CG is sign-agnostic, SIRT with clamping stays feasible)."""
        g = ParallelBeamGeometry(16, 12)
        op, _ = preprocess(g)
        sino = op.project_image(np.abs(np.random.default_rng(0).random((12, 12))))
        sino -= 0.1 * sino.max()
        res = reconstruct(sino, g, solver="sirt", iterations=10, operator=op,
                          nonnegativity=True)
        assert (res.image >= 0).all()


class TestCorruptedStructures:
    def test_unsorted_rows_rejected_implicitly_by_buffering(self):
        """build_buffered does not require sorted rows, but the staged
        kernel must still be numerically correct on unsorted input."""
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        S = sp.random(30, 40, density=0.3, random_state=rng, format="csr",
                      dtype=np.float32)
        A = CSRMatrix.from_scipy(S)  # scipy sorts; shuffle columns to unsort
        perm = rng.permutation(40)
        rank = np.empty(40, dtype=np.int64)
        rank[perm] = np.arange(40)
        shuffled = A.permute(None, rank)  # rows now unsorted by index
        B = build_buffered(shuffled, 8, 64)
        x = rng.random(40).astype(np.float32)
        np.testing.assert_allclose(B.spmv(x), shuffled.spmv(x), atol=1e-4)

    def test_mismatched_ordering_dimensions(self):
        o = make_ordering("pseudo-hilbert", 8, 8)
        with pytest.raises(ValueError):
            o.to_ordered(np.zeros((8, 9)))

    def test_operator_config_immutable_kernel_check(self):
        with pytest.raises(ValueError):
            OperatorConfig(kernel="csc")

    def test_reconstruct_volume_shape_mismatch(self):
        from repro.pipeline import reconstruct_stack

        g = ParallelBeamGeometry(10, 8)
        op, _ = preprocess(g)
        with pytest.raises(ValueError):
            reconstruct_stack(np.zeros((2, 10, 9)), g, operator=op)


class TestNumericalStability:
    def test_cgls_on_rank_deficient_system(self):
        """Duplicate rows make A^T A singular; CGLS must still converge
        to *a* least-squares solution without blowing up."""
        import scipy.sparse as sp

        dense = np.random.default_rng(1).random((10, 20)).astype(np.float32)
        dense = np.vstack([dense, dense])  # rank <= 10 < 20 columns
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        from repro.sparse import scan_transpose

        AT = scan_transpose(A)

        class Op:
            num_rays, num_pixels = A.num_rows, A.num_cols
            forward = staticmethod(lambda x: A.spmv(np.asarray(x, dtype=np.float32)))
            adjoint = staticmethod(lambda y: AT.spmv(np.asarray(y, dtype=np.float32)))

        y = np.ones(20)
        res = cgls(Op(), y, num_iterations=100)
        assert np.isfinite(res.x).all()
        assert res.residual_norms[-1] <= res.residual_norms[0]

    def test_sirt_with_zero_row(self):
        import scipy.sparse as sp

        dense = np.zeros((4, 4), dtype=np.float32)
        dense[0] = [1, 1, 0, 0]
        dense[2] = [0, 0, 2, 1]
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        from repro.sparse import scan_transpose

        AT = scan_transpose(A)

        class Op:
            num_rays, num_pixels = 4, 4
            forward = staticmethod(lambda x: A.spmv(np.asarray(x, dtype=np.float32)))
            adjoint = staticmethod(lambda y: AT.spmv(np.asarray(y, dtype=np.float32)))
            row_sums = staticmethod(A.row_sums)
            col_sums = staticmethod(A.col_sums)

        res = sirt(Op(), np.array([2.0, 5.0, 3.0, -1.0]), num_iterations=10)
        assert np.isfinite(res.x).all()
