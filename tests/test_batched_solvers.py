"""Tests for the slab (multi-RHS) solvers.

Core contract: column ``j`` of a slab solve is **bit-identical**
(``np.array_equal``, not approx) to the single-slice solve of column
``j`` — batching changes the schedule, never the arithmetic — and both
equal the independent textbook recurrence in
:mod:`tests.solver_conformance`.  Each solver's class inherits that
conformance matrix (S x kernel x dtype) from ``SolverT`` and adds its
own cases.  On top of that, per-column convergence masks must freeze
each column at its own stopping iteration.
"""

import inspect

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.resilience import CheckpointManager, HealthMonitor
from repro.solvers import (
    BatchSolveResult,
    cgls,
    cgls_batch,
    mlem,
    mlem_batch,
    sirt,
    sirt_batch,
)
from repro.solvers.cg import _CG
from repro.solvers.driver import solve_slab

from .solver_conformance import (
    LoopOnlyOperator,
    SolverT,
    assert_column_matches,
    ref_cgls,
    ref_mlem,
    ref_sirt,
)


@pytest.fixture(scope="module")
def op():
    operator, _ = preprocess(
        ParallelBeamGeometry(36, 24),
        config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096),
    )
    return operator


@pytest.fixture()
def Y(op, rng):
    return np.abs(rng.normal(size=(op.num_rays, 4)))


class NullDirectionOperator:
    """``forward`` is identically zero but ``adjoint`` is not: the first
    CG search direction is non-zero and lies in the null space."""

    def __init__(self, inner):
        self.num_rays, self.num_pixels = inner.num_rays, inner.num_pixels
        self._adjoint = inner.adjoint

    def forward(self, x):
        return np.zeros(self.num_rays)

    def adjoint(self, y):
        return np.asarray(self._adjoint(y), dtype=np.float64)


class TestCGLSBatch(SolverT):
    single, batch, reference = map(staticmethod, (cgls, cgls_batch, ref_cgls))
    firing_tolerance = 1e-3

    @pytest.mark.parametrize("S", [1, 4])
    def test_null_direction_stops(self, op, Y, S):
        null = NullDirectionOperator(op)
        batch = cgls_batch(null, Y[:, :S], num_iterations=5)
        assert batch.stop_reasons == ["search direction in null space"] * S
        assert not batch.iterations.any() and batch.converged.all()
        for j in range(S):
            assert_column_matches(batch.column(j), ref_cgls(null, Y[:, j], 5))
            assert_column_matches(cgls(null, Y[:, j], num_iterations=5), batch.column(j))

    def test_bit_exact_per_column(self, op, Y):
        batch = cgls_batch(op, Y, num_iterations=10)
        for j in range(Y.shape[1]):
            single = cgls(op, Y[:, j], num_iterations=10)
            assert np.array_equal(batch.X[:, j], single.x)
            col = batch.column(j)
            assert col.residual_norms == single.residual_norms
            assert col.solution_norms == single.solution_norms
            assert col.iterations == single.iterations

    def test_bit_exact_with_tolerance(self, op, Y):
        """Per-column stopping: each column freezes exactly where its
        single-slice counterpart stops, and keeps those bits."""
        tol = 1e-2
        batch = cgls_batch(op, Y, num_iterations=40, tolerance=tol)
        stopped = []
        for j in range(Y.shape[1]):
            single = cgls(op, Y[:, j], num_iterations=40, tolerance=tol)
            assert np.array_equal(batch.X[:, j], single.x)
            assert batch.iterations[j] == single.iterations
            assert bool(batch.converged[j]) == single.converged
            stopped.append(single.iterations)
        # The test is only meaningful if columns actually stop at
        # different iterations; random RHS make that overwhelmingly likely.
        assert len(set(stopped)) > 1 or all(s == 40 for s in stopped)

    def test_zero_column_converges_immediately(self, op, Y):
        Yz = Y.copy()
        Yz[:, 1] = 0.0
        batch = cgls_batch(op, Yz, num_iterations=5)
        assert batch.converged[1]
        assert batch.iterations[1] == 0
        assert np.array_equal(batch.X[:, 1], np.zeros(op.num_pixels))
        # Other columns are unaffected by the frozen one.
        single = cgls(op, Yz[:, 0], num_iterations=5)
        assert np.array_equal(batch.X[:, 0], single.x)

    def test_loop_fallback_operator(self, op, Y):
        """An operator without batch methods gives identical results."""
        loop = cgls_batch(LoopOnlyOperator(op), Y, num_iterations=6)
        batch = cgls_batch(op, Y, num_iterations=6)
        assert np.array_equal(loop.X, batch.X)

    def test_result_shapes(self, op, Y):
        batch = cgls_batch(op, Y, num_iterations=5)
        assert isinstance(batch, BatchSolveResult)
        assert batch.num_rhs == Y.shape[1]
        assert batch.X.shape == (op.num_pixels, Y.shape[1])
        assert batch.residual_norms.shape == (6, Y.shape[1])
        assert len(batch.stop_reasons) == Y.shape[1]

    def test_rejects_1d(self, op):
        with pytest.raises(ValueError, match="slab"):
            cgls_batch(op, np.zeros(op.num_rays))

    def test_rejects_wrong_rows(self, op):
        with pytest.raises(ValueError, match="rows"):
            cgls_batch(op, np.zeros((op.num_rays + 1, 2)))


class TestSIRTBatch(SolverT):
    single, batch, reference = map(staticmethod, (sirt, sirt_batch, ref_sirt))
    params = {"relaxation": 0.9, "nonnegativity": True}

    def test_bit_exact_per_column(self, op, Y):
        batch = sirt_batch(op, Y, num_iterations=8)
        for j in range(Y.shape[1]):
            single = sirt(op, Y[:, j], num_iterations=8)
            assert np.array_equal(batch.X[:, j], single.x)
            col = batch.column(j)
            assert col.residual_norms == single.residual_norms

    def test_bit_exact_with_relaxation_and_nonnegativity(self, op, Y):
        batch = sirt_batch(op, Y, num_iterations=6, relaxation=0.7, nonnegativity=True)
        for j in range(Y.shape[1]):
            single = sirt(
                op, Y[:, j], num_iterations=6, relaxation=0.7, nonnegativity=True
            )
            assert np.array_equal(batch.X[:, j], single.x)

    def test_tolerance_freezes_columns(self, op, Y):
        Ys = Y.copy()
        Ys[:, 2] *= 1e-6  # tiny column converges (relative) fast
        batch = sirt_batch(op, Ys, num_iterations=30, tolerance=0.5)
        assert batch.iterations.min() < 30 or batch.converged.any()
        # Frozen column keeps the bits it had at its stopping iteration.
        j = int(np.argmin(batch.iterations))
        refer = sirt_batch(op, Ys, num_iterations=int(batch.iterations[j]), tolerance=0.0)
        if batch.converged[j]:
            assert np.array_equal(batch.X[:, j], refer.X[:, j])


class TestMLEMBatch(SolverT):
    single, batch, reference = map(staticmethod, (mlem, mlem_batch, ref_mlem))

    def test_bit_exact_per_column(self, op, Y):
        batch = mlem_batch(op, Y, num_iterations=8)
        for j in range(Y.shape[1]):
            single = mlem(op, Y[:, j], num_iterations=8)
            assert np.array_equal(batch.X[:, j], single.x)

    def test_rejects_negative_measurements(self, op, Y):
        Yn = Y.copy()
        Yn[0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            mlem_batch(op, Yn)

    def test_nonnegative_output(self, op, Y):
        batch = mlem_batch(op, Y, num_iterations=5)
        assert (batch.X >= 0).all()


class TestDriverSurface:
    def test_slab_rejects_single_state_hooks(self, op, Y):
        """Checkpoint/resume/health track one recurrence state: a wider
        slab must fail loudly, never ignore them."""
        for hook in (
            {"checkpoint": CheckpointManager(every=1)},
            {"resume": CheckpointManager(every=1)},
            {"health": HealthMonitor()},
        ):
            with pytest.raises(ValueError, match="one-column slab"):
                solve_slab(_CG(), op, Y, 3, **hook)

    def test_public_signatures(self):
        """Single and slab forms take the same knobs; ``tolerance`` on
        ``sirt``/``mlem`` is the only parameter the collapse added."""
        hooks = ["callback", "checkpoint", "resume", "health"]
        expect = {
            cgls: ["op", "y", "num_iterations", "x0", "tolerance", *hooks],
            sirt: ["op", "y", "num_iterations", "x0", "relaxation",
                   "nonnegativity", *hooks, "tolerance"],
            mlem: ["op", "y", "num_iterations", "x0", *hooks, "tolerance"],
            cgls_batch: ["op", "Y", "num_iterations", "X0", "tolerance", "callback"],
            sirt_batch: ["op", "Y", "num_iterations", "X0", "relaxation",
                         "nonnegativity", "tolerance", "callback"],
            mlem_batch: ["op", "Y", "num_iterations", "X0", "tolerance", "callback"],
        }
        for fn, names in expect.items():
            assert list(inspect.signature(fn).parameters) == names
