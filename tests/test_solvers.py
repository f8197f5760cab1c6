"""Tests for the iterative solvers and L-curve analysis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.resilience import CheckpointManager
from repro.solvers import cgls, lcurve_corner, overfit_onset, sgd, sirt
from repro.sparse import CSRMatrix, scan_transpose

from .solver_conformance import conformance_operator


class MatrixOperator:
    """Minimal ProjectionOperator over a CSRMatrix (test helper)."""

    def __init__(self, matrix: CSRMatrix):
        self.matrix = matrix
        self.matrix_t = scan_transpose(matrix)

    @property
    def num_rays(self):
        return self.matrix.num_rows

    @property
    def num_pixels(self):
        return self.matrix.num_cols

    def forward(self, x):
        return self.matrix.spmv(np.asarray(x, dtype=np.float32))

    def adjoint(self, y):
        return self.matrix_t.spmv(np.asarray(y, dtype=np.float32))

    def row_sums(self):
        return self.matrix.row_sums()

    def col_sums(self):
        return self.matrix.col_sums()


@pytest.fixture()
def overdetermined_op(rng):
    S = sp.random(150, 60, density=0.25, random_state=rng, format="csr", dtype=np.float32)
    S.data[:] = np.abs(S.data) + 0.1
    return MatrixOperator(CSRMatrix.from_scipy(S))


@pytest.fixture()
def consistent_problem(overdetermined_op, rng):
    x_true = rng.random(60)
    y = overdetermined_op.forward(x_true)
    return overdetermined_op, x_true, y


class TestCGLS:
    def test_solves_consistent_system(self, consistent_problem):
        op, x_true, y = consistent_problem
        res = cgls(op, y, num_iterations=300, tolerance=1e-12)
        assert np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true) < 1e-4
        assert res.converged

    def test_residual_monotonically_decreases(self, consistent_problem):
        op, _, y = consistent_problem
        res = cgls(op, y, num_iterations=40)
        r = np.asarray(res.residual_norms)
        assert np.all(np.diff(r) <= 1e-8)

    def test_history_lengths(self, consistent_problem):
        op, _, y = consistent_problem
        res = cgls(op, y, num_iterations=10)
        assert res.iterations == 10
        assert len(res.residual_norms) == 11  # initial + per-iteration
        assert len(res.solution_norms) == 11

    def test_warm_start(self, consistent_problem):
        op, x_true, y = consistent_problem
        res = cgls(op, y, num_iterations=5, x0=x_true)
        assert res.residual_norms[0] < 1e-3

    def test_callback_invoked(self, consistent_problem):
        op, _, y = consistent_problem
        seen = []
        cgls(op, y, num_iterations=3, callback=lambda it, x: seen.append(it))
        assert seen == [1, 2, 3]

    def test_zero_rhs_converges_immediately(self, overdetermined_op):
        res = cgls(overdetermined_op, np.zeros(150), num_iterations=5)
        assert res.converged
        np.testing.assert_allclose(res.x, 0.0)

    def test_wrong_length_rejected(self, overdetermined_op):
        with pytest.raises(ValueError):
            cgls(overdetermined_op, np.zeros(149))

    def test_lcurve_accessor(self, consistent_problem):
        op, _, y = consistent_problem
        res = cgls(op, y, num_iterations=5)
        r, s = res.lcurve()
        assert r.shape == s.shape == (6,)


class TestSIRT:
    def test_reduces_residual(self, consistent_problem):
        op, _, y = consistent_problem
        res = sirt(op, y, num_iterations=100)
        assert res.residual_norms[-1] < 0.05 * res.residual_norms[0]

    def test_slower_than_cg(self, consistent_problem):
        """The Fig. 8(a) claim at equal iteration count."""
        op, _, y = consistent_problem
        res_cg = cgls(op, y, num_iterations=20)
        res_sirt = sirt(op, y, num_iterations=20)
        assert res_cg.residual_norms[-1] < res_sirt.residual_norms[-1]

    def test_nonnegativity_constraint(self, consistent_problem):
        op, _, y = consistent_problem
        res = sirt(op, y, num_iterations=20, nonnegativity=True)
        assert (res.x >= 0).all()

    def test_relaxation(self, consistent_problem):
        op, _, y = consistent_problem
        res_low = sirt(op, y, num_iterations=10, relaxation=0.3)
        res_std = sirt(op, y, num_iterations=10, relaxation=1.0)
        assert res_std.residual_norms[-1] < res_low.residual_norms[-1]

    def test_works_without_sum_methods(self, consistent_problem):
        op, _, y = consistent_problem

        class Bare:
            num_rays = op.num_rays
            num_pixels = op.num_pixels
            forward = staticmethod(op.forward)
            adjoint = staticmethod(op.adjoint)

        res = sirt(Bare(), y, num_iterations=30)
        assert res.residual_norms[-1] < res.residual_norms[0]

    def test_wrong_length_rejected(self, overdetermined_op):
        with pytest.raises(ValueError):
            sirt(overdetermined_op, np.zeros(3))


class TestSGD:
    def test_descends(self, consistent_problem):
        op, _, y = consistent_problem
        res = sgd(op, y, num_iterations=60, batch_fraction=0.3, seed=0)
        assert res.residual_norms[-1] < 0.5 * res.residual_norms[0]

    def test_full_batch_equals_gradient_descent(self, consistent_problem):
        op, _, y = consistent_problem
        res = sgd(op, y, num_iterations=20, batch_fraction=1.0, seed=0)
        r = np.asarray(res.residual_norms)
        assert np.all(np.diff(r) <= 1e-8)  # deterministic descent

    def test_uses_subset_interface_when_available(self, consistent_problem):
        op, _, y = consistent_problem
        calls = []

        class WithSubset:
            num_rays = op.num_rays
            num_pixels = op.num_pixels
            forward = staticmethod(op.forward)
            adjoint = staticmethod(op.adjoint)
            row_sums = staticmethod(op.row_sums)

            def row_subset_forward(self, x, rows):
                calls.append(len(rows))
                sub = op.matrix.permute(np.asarray(rows), None)
                return sub.spmv(np.asarray(x, dtype=np.float32))

            def row_subset_adjoint(self, y_rows, rows):
                sub = op.matrix.permute(np.asarray(rows), None)
                return scan_transpose(sub).spmv(np.asarray(y_rows, dtype=np.float32))

        sgd(WithSubset(), y, num_iterations=3, batch_fraction=0.2, seed=1)
        assert len(calls) == 3

    def test_invalid_batch_fraction(self, overdetermined_op):
        with pytest.raises(ValueError):
            sgd(overdetermined_op, np.zeros(150), batch_fraction=0.0)


class TestLCurve:
    def test_corner_on_synthetic_l(self):
        """A sharp synthetic L: fast residual drop then solution-norm
        blow-up at index 10."""
        r = np.concatenate([np.geomspace(1.0, 1e-2, 11), np.full(10, 9e-3)])
        s = np.concatenate([np.linspace(1.0, 2.0, 11), np.geomspace(2.0, 50.0, 10)])
        corner = lcurve_corner(r, s)
        assert 8 <= corner <= 13

    def test_short_series(self):
        assert lcurve_corner(np.array([1.0]), np.array([1.0])) == 0
        assert lcurve_corner(np.array([1.0, 0.5]), np.array([1.0, 2.0])) == 1

    def test_flat_curve_returns_last_index(self):
        """Degenerate curves (no positive curvature anywhere) mean "no
        corner reached": keep iterating, don't stop at iteration 0."""
        assert lcurve_corner(np.ones(40), np.ones(40)) == 39
        assert lcurve_corner(np.full(10, 2.0), np.full(10, 3.0)) == 9

    def test_overfit_onset(self):
        r = np.array([1.0, 0.5, 0.25, 0.249, 0.2489, 0.2488])
        s = np.array([1.0, 1.5, 1.8, 1.9, 2.2, 2.6])
        onset = overfit_onset(r, s, residual_tol=1e-2)
        assert onset == 3

    def test_overfit_never_triggers(self):
        r = np.geomspace(1, 1e-6, 10)
        s = np.full(10, 1.0)
        assert overfit_onset(r, s) == 9

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            overfit_onset(np.zeros(3), np.zeros(4))


class TestPublicMatrixOperator:
    def test_builds_transpose_automatically(self, rng):
        from repro.solvers import MatrixOperator

        S = sp.random(20, 15, density=0.3, random_state=rng, format="csr", dtype=np.float32)
        op = MatrixOperator(CSRMatrix.from_scipy(S))
        assert op.num_rays == 20 and op.num_pixels == 15
        x = rng.random(15).astype(np.float32)
        y = rng.random(20).astype(np.float32)
        np.testing.assert_allclose(op.forward(x), S @ x, atol=1e-4)
        np.testing.assert_allclose(op.adjoint(y), S.T @ y, atol=1e-4)

    def test_accepts_explicit_transpose(self, rng):
        from repro.solvers import MatrixOperator

        S = sp.random(12, 9, density=0.4, random_state=rng, format="csr", dtype=np.float32)
        A = CSRMatrix.from_scipy(S)
        op = MatrixOperator(A, transpose=scan_transpose(A))
        assert op.transpose.shape == (9, 12)

    def test_shape_mismatch_rejected(self, rng):
        from repro.solvers import MatrixOperator

        S = sp.random(12, 9, density=0.4, random_state=rng, format="csr", dtype=np.float32)
        A = CSRMatrix.from_scipy(S)
        with pytest.raises(ValueError):
            MatrixOperator(A, transpose=A)

    def test_drives_every_solver(self, rng):
        from repro.solvers import MatrixOperator

        S = sp.random(60, 30, density=0.3, random_state=rng, format="csr", dtype=np.float32)
        S.data[:] = np.abs(S.data) + 0.1
        op = MatrixOperator(CSRMatrix.from_scipy(S))
        x_true = rng.random(30)
        y = op.forward(x_true.astype(np.float32))
        for solver, kwargs in ((cgls, {}), (sirt, {}), (sgd, {"seed": 0})):
            res = solver(op, y, num_iterations=20, **kwargs)
            assert res.residual_norms[-1] < res.residual_norms[0]


class TestMLEM:
    def test_converges_on_nonnegative_system(self, rng):
        from repro.solvers import mlem

        S = sp.random(120, 50, density=0.25, random_state=rng, format="csr",
                      dtype=np.float32)
        S.data[:] = np.abs(S.data) + 0.1
        from repro.solvers import MatrixOperator

        op = MatrixOperator(CSRMatrix.from_scipy(S))
        x_true = rng.random(50) + 0.1
        y = op.forward(x_true.astype(np.float32))
        res = mlem(op, y, num_iterations=200)
        assert res.residual_norms[-1] < 0.05 * res.residual_norms[0]
        assert (res.x >= 0).all()

    def test_preserves_nonnegativity_on_noisy_data(self, consistent_problem, rng):
        from repro.solvers import mlem

        op, _, y = consistent_problem
        noisy = np.maximum(y + rng.normal(scale=0.1 * y.max(), size=y.shape), 0.0)
        res = mlem(op, noisy, num_iterations=30)
        assert (res.x >= 0).all()
        assert res.residual_norms[-1] < res.residual_norms[0]

    def test_zero_sensitivity_pixels_stay_zero(self):
        from repro.solvers import MatrixOperator, mlem

        dense = np.zeros((4, 3), dtype=np.float32)
        dense[:, 0] = 1.0
        dense[:, 1] = 2.0  # column 2 never measured
        op = MatrixOperator(CSRMatrix.from_scipy(sp.csr_matrix(dense)))
        res = mlem(op, np.ones(4), num_iterations=10)
        assert res.x[2] == 0.0

    def test_negative_data_rejected(self, consistent_problem):
        from repro.solvers import mlem

        op, _, y = consistent_problem
        bad = y.copy()
        bad[0] = -1.0
        with pytest.raises(ValueError):
            mlem(op, bad)

    def test_nonpositive_init_rejected(self, consistent_problem):
        from repro.solvers import mlem

        op, _, y = consistent_problem
        with pytest.raises(ValueError):
            mlem(op, y, x0=np.zeros(op.num_pixels))


class TestOperatorBudget:
    """CG applies one adjoint to start, then one forward and one adjoint
    per iteration, and no adjoint after the last unless a tolerance or a
    checkpoint reads its gradient; a zero start costs no forward."""

    @pytest.fixture()
    def system(self):
        op = conformance_operator("csr", None)
        truth = np.random.default_rng(3).random(op.num_pixels)
        return op, np.asarray(op.forward(truth), dtype=np.float64)

    @staticmethod
    def counted(solve, *args, **kwargs):
        """``(result, (forwards, adjoints))`` of one solve."""
        with obs.capture() as cap:
            result = solve(*args, **kwargs)
        kernels = tuple(len(cap.find_spans(f"spmv.{d}")) for d in ("forward", "adjoint"))
        return result, kernels

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_zero_start_costs_2k(self, system, k):
        op, y = system
        result, kernels = self.counted(cgls, op, y, num_iterations=k)
        assert result.iterations == k
        assert kernels == (k, k)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_tolerance_or_checkpoint_pays_the_last_adjoint(self, system, k):
        op, y = system
        plain, _ = self.counted(cgls, op, y, num_iterations=k)
        for kwargs in ({"tolerance": 1e-30}, {"checkpoint": CheckpointManager(every=1)}):
            result, kernels = self.counted(cgls, op, y, num_iterations=k, **kwargs)
            assert kernels == (k, k + 1), kwargs
            assert np.array_equal(result.x, plain.x)
            assert result.residual_norms == plain.residual_norms

    @pytest.mark.parametrize("k", [1, 5])
    def test_nonzero_start_pays_one_forward(self, system, k):
        op, y = system
        x0 = np.full(op.num_pixels, 0.5)
        _, kernels = self.counted(cgls, op, y, num_iterations=k, x0=x0)
        assert kernels == (k + 1, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_explicit_zero_start_is_no_start(self, system, k):
        op, y = system
        plain, plain_kernels = self.counted(cgls, op, y, num_iterations=k)
        for x0 in (np.zeros(op.num_pixels), np.full(op.num_pixels, -0.0)):
            zero, kernels = self.counted(cgls, op, y, num_iterations=k, x0=x0)
            assert kernels == plain_kernels
            assert np.array_equal(zero.x, plain.x)
            assert zero.residual_norms == plain.residual_norms

    def test_sirt_zero_start_skips_its_initial_forward(self, system):
        op, y = system
        _, kernels = self.counted(sirt, op, y, num_iterations=3)
        assert kernels == (3, 3)
        _, kernels = self.counted(sirt, op, y, num_iterations=3, x0=np.ones(op.num_pixels))
        assert kernels == (4, 3)

    def test_last_iteration_does_not_look_for_an_exact_solution(self):
        """``A = I`` and ``y`` of ones: CG is exact after one iteration
        (alpha = 1, r = y - y = 0).  Without a tolerance or checkpoint
        the last iteration's gradient is never formed, so a budget of one
        reports exhaustion where a budget of two sees the exact solution;
        the image and histories are the same."""
        op = MatrixOperator(CSRMatrix.from_scipy(sp.identity(8, dtype=np.float32, format="csr")))
        y = np.ones(8)
        last = cgls(op, y, num_iterations=1)
        early = cgls(op, y, num_iterations=2)
        assert (early.iterations, early.stop_reason) == (1, "exact solution reached")
        assert (last.iterations, last.stop_reason) == (1, "iteration budget exhausted")
        assert not last.converged and early.converged
        assert np.array_equal(last.x, early.x) and np.array_equal(last.x, y)
        assert last.residual_norms == early.residual_norms == [np.sqrt(8.0), 0.0]
        # A rule or a snapshot that reads the gradient still forms it.
        tolerant = cgls(op, y, num_iterations=1, tolerance=1e-30)
        assert tolerant.stop_reason == "gradient tolerance reached"
        saved = cgls(op, y, num_iterations=1, checkpoint=CheckpointManager(every=1))
        assert saved.stop_reason == "exact solution reached"


_BUDGET_SOLVERS = [
    "cg", "sirt", "mlem", "cg-slab", "sirt-slab", "mlem-slab", "sgd", "icd",
    "reconstruct", "reconstruct-stack",
]


class TestNegativeBudget:
    """A negative iteration budget is an error, not an empty solve that
    returns the start image; a budget of zero stays legal."""

    @staticmethod
    def _solvers(op, y):
        from repro.core import reconstruct
        from repro.pipeline import reconstruct_stack
        from repro.solvers import cgls_batch, icd, mlem, mlem_batch, sirt_batch

        Y = np.stack([y, 2 * y], axis=1)
        sinogram = op.ordered_to_sinogram(y)
        stack = np.stack([sinogram, 2 * sinogram])
        return {
            "cg": lambda n: cgls(op, y, num_iterations=n),
            "sirt": lambda n: sirt(op, y, num_iterations=n),
            "mlem": lambda n: mlem(op, np.abs(y), num_iterations=n),
            "cg-slab": lambda n: cgls_batch(op, Y, num_iterations=n),
            "sirt-slab": lambda n: sirt_batch(op, Y, num_iterations=n),
            "mlem-slab": lambda n: mlem_batch(op, np.abs(Y), num_iterations=n),
            "sgd": lambda n: sgd(op, y, num_iterations=n),
            "icd": lambda n: icd(op.matrix, op.transpose, y, num_sweeps=n),
            "reconstruct": lambda n: reconstruct(sinogram, operator=op, iterations=n),
            "reconstruct-stack": lambda n: reconstruct_stack(
                stack, stages=[], operator=op, iterations=n
            ),
        }

    @pytest.mark.parametrize("solver", _BUDGET_SOLVERS)
    def test_negative_budget_rejected(self, solver):
        op = conformance_operator("csr", None)
        y = np.asarray(op.forward(np.ones(op.num_pixels)), dtype=np.float64)
        solve = self._solvers(op, y)[solver]
        with pytest.raises(ValueError, match=">= 0"):
            solve(-1)
        solve(0)

    @pytest.mark.parametrize("solver", _BUDGET_SOLVERS)
    def test_zero_budget_returns_the_start_image(self, solver):
        # The default start is zero, except MLEM's multiplicative update,
        # which starts from ones.
        op = conformance_operator("csr", None)
        y = np.asarray(op.forward(np.ones(op.num_pixels)), dtype=np.float64)
        result = self._solvers(op, y)[solver](0)
        start = 1.0 if solver.startswith("mlem") else 0.0
        if solver == "reconstruct":
            image, iterations = result.image, [result.solve.iterations]
        elif solver == "reconstruct-stack":
            image, iterations = result.volume, [0]
        elif solver.endswith("-slab"):
            image, iterations = result.X, result.iterations
        else:
            image, iterations = result.x, [result.iterations]
        assert np.all(np.asarray(iterations) == 0)
        np.testing.assert_array_equal(image, start)
