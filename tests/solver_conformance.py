"""Independent solver references and the conformance class built on them.

``cgls``/``sirt``/``mlem`` are the slab driver at ``S = 1``, so "batch
column == single solve" alone no longer checks the arithmetic against
anything independent.  The three functions below are the bare textbook
recurrences — one right-hand side, 1-D kernels only, no hooks, no spans
— and :class:`SolverT` is the conformance every slab solver inherits
(the ``conftest.SolverT`` shape): driver == reference, bit for bit,
over S x kernel x dtype.
"""

import functools

import numpy as np
import pytest

from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.solvers import SolveResult, solver_dtype

_EPS = 1e-12


def _apply(kernel, v, work):
    return np.asarray(kernel(v), dtype=work)


def _done(x, k, norms, reason):
    return SolveResult(x, k, norms, converged=bool(reason),
                       stop_reason=reason or "iteration budget exhausted")


def ref_cgls(op, y, num_iterations, tolerance=0.0):
    work = solver_dtype(op)
    y = np.asarray(y, dtype=work)
    x = np.zeros(op.num_pixels, dtype=work)
    r = y - _apply(op.forward, x, work)
    s = _apply(op.adjoint, r, work)
    p, gamma = s.copy(), float(s @ s)
    gamma0, norms, k = gamma, [float(np.linalg.norm(r))], 0
    reason = "" if gamma else "zero gradient at start: x0 solves the normal equations"
    while not reason and k < num_iterations:
        q = _apply(op.forward, p, work)
        qq = float(q @ q)
        if qq == 0.0:
            reason = "search direction in null space"
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        s = _apply(op.adjoint, r, work)
        gamma, previous = float(s @ s), gamma
        p = s + (gamma / previous) * p
        k += 1
        norms.append(float(np.linalg.norm(r)))
        if tolerance > 0.0 and gamma <= tolerance**2 * gamma0:
            reason = "gradient tolerance reached"
        elif gamma == 0.0:
            reason = "exact solution reached"
    return _done(x, k, norms, reason)


def _residual_loop(op, y, x, update, num_iterations, tolerance, work):
    """Shared shell of the two residual-rule solvers: iterate
    ``x <- update(x, A x)`` until ``||y - A x|| <= tolerance ||y||``."""
    forward = _apply(op.forward, x, work)
    norms, k, reason = [float(np.linalg.norm(y - forward))], 0, ""
    while not reason and k < num_iterations:
        x = update(x, forward)
        forward = _apply(op.forward, x, work)
        k += 1
        norms.append(float(np.linalg.norm(y - forward)))
        if tolerance > 0.0 and norms[-1] <= tolerance * float(np.linalg.norm(y)):
            reason = "residual tolerance reached"
    return _done(x, k, norms, reason)


def ref_sirt(op, y, num_iterations, tolerance=0.0, relaxation=1.0, nonnegativity=False):
    work = solver_dtype(op)
    y = np.asarray(y, dtype=work)
    rows = np.asarray(op.row_sums(), dtype=work)
    cols = np.asarray(op.col_sums(), dtype=work)
    r_inv = np.divide(1.0, rows, out=np.zeros_like(rows), where=rows != 0)
    c_inv = np.divide(1.0, cols, out=np.zeros_like(cols), where=cols != 0)

    def update(x, forward):
        x = x + relaxation * (c_inv * _apply(op.adjoint, r_inv * (y - forward), work))
        return np.maximum(x, 0.0) if nonnegativity else x

    x0 = np.zeros(op.num_pixels, dtype=work)
    return _residual_loop(op, y, x0, update, num_iterations, tolerance, work)


def ref_mlem(op, y, num_iterations, tolerance=0.0):
    work = solver_dtype(op)
    y = np.asarray(y, dtype=work)
    sensitivity = _apply(op.adjoint, np.ones(op.num_rays), work)
    support = sensitivity > _EPS

    def update(x, forward):
        ratio = np.zeros_like(y)
        np.divide(y, forward, out=ratio, where=forward > _EPS)
        back = _apply(op.adjoint, ratio, work)
        scale = np.divide(back, sensitivity, out=np.zeros_like(x), where=support)
        return x * scale

    x0 = np.ones(op.num_pixels, dtype=work)
    return _residual_loop(op, y, x0, update, num_iterations, tolerance, work)


class LoopOnlyOperator:
    """ProjectionOperator without batch methods — exercises the fallback."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def solve_dtype(self):
        # Forward the inner operator's precision so the loop fallback
        # and the batch path solve in the same dtype (matters when
        # REPRO_DTYPE puts the suite on the fp32 path).
        return getattr(self.inner, "solve_dtype", None)

    @property
    def num_rays(self):
        return self.inner.num_rays

    @property
    def num_pixels(self):
        return self.inner.num_pixels

    def forward(self, x):
        return self.inner.forward(x)

    def adjoint(self, y):
        return self.inner.adjoint(y)

    def row_sums(self):
        return self.inner.row_sums()

    def col_sums(self):
        return self.inner.col_sums()


@functools.lru_cache(maxsize=None)
def conformance_operator(kernel: str, dtype: str | None):
    operator, _ = preprocess(
        ParallelBeamGeometry(24, 16),
        config=OperatorConfig(
            kernel=kernel, partition_size=32, buffer_bytes=4096, dtype=dtype
        ),
    )
    return operator


def assert_column_matches(column: SolveResult, ref: SolveResult) -> None:
    assert np.array_equal(column.x, ref.x)
    assert column.iterations == ref.iterations
    assert column.residual_norms == ref.residual_norms
    assert column.converged == ref.converged
    assert column.stop_reason == ref.stop_reason


MATRIX = [
    pytest.param((kernel, dtype, S), id=f"{kernel}-{dtype or 'mixed'}-S{S}")
    for kernel in ("csr", "buffered", "ell")
    for dtype in (None, "float32", "float64")
    for S in (1, 4)
]


class SolverT:
    """Conformance of one slab solver; subclasses name the solver."""

    single = batch = reference = None  # staticmethod(...) in subclasses
    params: dict = {}  # recurrence parameters beyond the driver's
    budget = 30
    firing_tolerance = 0.07  # stops every column of ``slab`` early

    @pytest.fixture(params=MATRIX)
    def system(self, request):
        """``(operator, Y)``: a kernel x dtype operator and an ``S``-column
        slab of consistent data whose noise level differs per column, so
        a tolerance stops the columns at different iterations."""
        kernel, dtype, S = request.param
        op = conformance_operator(kernel, dtype)
        rng = np.random.default_rng(1234)
        truth = rng.random((op.num_pixels, S))
        clean = np.stack(
            [np.asarray(op.forward(truth[:, j]), dtype=np.float64) for j in range(S)],
            axis=1,
        )
        noise = rng.random(clean.shape) * clean.mean()
        return op, clean + noise * np.geomspace(0.2, 0.004, S)

    def check(self, op, Y, tolerance, budget=None):
        """Slab solve and ``S = 1`` adapter both equal the reference."""
        kwargs = dict(
            num_iterations=budget or self.budget, tolerance=tolerance, **self.params
        )
        batch = self.batch(op, Y, **kwargs)
        refs = []
        for j in range(Y.shape[1]):
            ref = self.reference(op, Y[:, j], **kwargs)
            assert_column_matches(batch.column(j), ref)
            single = self.single(op, Y[:, j], **kwargs)
            assert_column_matches(single, ref)
            assert single.solution_norms == batch.column(j).solution_norms
            refs.append(ref)
        return batch, refs

    def test_matches_reference(self, system):
        op, Y = system
        batch, refs = self.check(op, Y, 0.0, budget=8)
        assert all(ref.iterations == 8 for ref in refs)
        assert batch.residual_norms.shape == (9, Y.shape[1])

    def test_tolerance_freezes_each_column_at_its_own_iteration(self, system):
        op, Y = system
        batch, refs = self.check(op, Y, self.firing_tolerance)
        assert all(0 < ref.iterations < self.budget for ref in refs)
        assert batch.converged.all()
        if Y.shape[1] > 1:
            assert len({ref.iterations for ref in refs}) > 1

    def test_zero_column(self, system):
        op, Y = system
        Y[:, -1] = 0.0
        self.check(op, Y, self.firing_tolerance)

    def test_loop_fallback_operator(self, system):
        """An operator without batch methods gives identical results."""
        op, Y = system
        kwargs = dict(num_iterations=8, tolerance=self.firing_tolerance, **self.params)
        loop = self.batch(LoopOnlyOperator(op), Y, **kwargs)
        batch = self.batch(op, Y, **kwargs)
        assert np.array_equal(loop.X, batch.X)
        assert np.array_equal(loop.iterations, batch.iterations)
        assert loop.stop_reasons == batch.stop_reasons
