"""Tests for the multi-RHS (slab) form of all three kernels.

The contract under test: for every kernel layout (CSR, multi-stage
buffered, partition-padded ELL), ``spmv(X)[:, j]`` of an ``(n, S)``
slab is **bit-identical** to ``spmv(X[:, j])`` — the slab call is the
same kernel doing the same arithmetic in the same order, just
amortizing the matrix streams over ``S`` right-hand sides — and the
operator-level batch entry points preserve adjointness per column.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import OperatorConfig, preprocess
from repro.sparse import build_buffered, build_ell, scan_transpose


@pytest.fixture(scope="module")
def batch_operator(request):
    from repro.geometry import ParallelBeamGeometry

    op, _ = preprocess(
        ParallelBeamGeometry(36, 24),
        config=OperatorConfig(kernel="buffered", partition_size=32, buffer_bytes=4096),
    )
    return op


def _slab(rng, n, s):
    return rng.normal(size=(n, s)).astype(np.float32)


class TestKernelBatchEquivalence:
    """spmv(slab) column j == spmv(column j), bitwise, per layout."""

    def test_csr(self, medium_matrix, rng):
        X = _slab(rng, medium_matrix.num_cols, 5)
        Y = medium_matrix.spmv(X)
        assert Y.shape == (medium_matrix.num_rows, 5)
        for j in range(5):
            assert np.array_equal(Y[:, j], medium_matrix.spmv(X[:, j]))

    def test_buffered(self, ordered_medium, rng):
        matrix, _, _ = ordered_medium
        buffered = build_buffered(matrix, partition_size=64, buffer_bytes=4096)
        X = _slab(rng, matrix.num_cols, 4)
        Y = buffered.spmv(X)
        for j in range(4):
            assert np.array_equal(Y[:, j], buffered.spmv(X[:, j]))

    def test_ell(self, ordered_medium, rng):
        matrix, _, _ = ordered_medium
        ell = build_ell(matrix, partition_size=64)
        X = _slab(rng, matrix.num_cols, 4)
        Y = ell.spmv(X)
        for j in range(4):
            assert np.array_equal(Y[:, j], ell.spmv(X[:, j]))

    def test_transpose_csr(self, medium_matrix, rng):
        matrix_t = scan_transpose(medium_matrix)
        Y = _slab(rng, matrix_t.num_cols, 3)
        X = matrix_t.spmv(Y)
        for j in range(3):
            assert np.array_equal(X[:, j], matrix_t.spmv(Y[:, j]))

    def test_single_column_slab(self, medium_matrix, rng):
        X = _slab(rng, medium_matrix.num_cols, 1)
        assert np.array_equal(
            medium_matrix.spmv(X)[:, 0], medium_matrix.spmv(X[:, 0])
        )


class TestShapeValidation:
    def test_csr_rejects_3d(self, medium_matrix):
        with pytest.raises(ValueError, match="slab"):
            medium_matrix.spmv(
                np.zeros((medium_matrix.num_cols, 2, 2), dtype=np.float32)
            )

    def test_csr_rejects_wrong_rows(self, medium_matrix):
        with pytest.raises(ValueError, match="rows"):
            medium_matrix.spmv(
                np.zeros((medium_matrix.num_cols + 1, 2), dtype=np.float32)
            )

    def test_ell_rejects_3d(self, ordered_medium):
        matrix, _, _ = ordered_medium
        ell = build_ell(matrix, partition_size=64)
        with pytest.raises(ValueError, match="slab"):
            ell.spmv(np.zeros((matrix.num_cols, 2, 2), dtype=np.float32))

    def test_buffered_rejects_wrong_rows(self, ordered_medium):
        matrix, _, _ = ordered_medium
        buffered = build_buffered(matrix, partition_size=64, buffer_bytes=4096)
        with pytest.raises(ValueError, match="rows"):
            buffered.spmv(np.zeros((matrix.num_cols + 3, 2), dtype=np.float32))


class TestOperatorBatch:
    """MemXCTOperator.forward_batch / adjoint_batch."""

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_matches_single(self, kernel, rng):
        from repro.geometry import ParallelBeamGeometry

        op, _ = preprocess(
            ParallelBeamGeometry(36, 24),
            config=OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=4096),
        )
        X = _slab(rng, op.num_pixels, 3)
        Y = op.forward_batch(X)
        for j in range(3):
            assert np.array_equal(Y[:, j], op.forward(X[:, j]))
        B = _slab(rng, op.num_rays, 3)
        Xb = op.adjoint_batch(B)
        for j in range(3):
            assert np.array_equal(Xb[:, j], op.adjoint(B[:, j]))

    def test_adjointness_per_column(self, batch_operator, rng):
        """<A x_j, y_j> == <x_j, A^T y_j> per column, to float32 accuracy."""
        op = batch_operator
        X = _slab(rng, op.num_pixels, 4)
        Y = _slab(rng, op.num_rays, 4)
        AX = op.forward_batch(X)
        AtY = op.adjoint_batch(Y)
        for j in range(4):
            lhs = float(AX[:, j].astype(np.float64) @ Y[:, j].astype(np.float64))
            rhs = float(X[:, j].astype(np.float64) @ AtY[:, j].astype(np.float64))
            assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_obs_accounting_amortizes_regular_bytes(self, batch_operator, rng):
        """A batch of S counts S SpMVs of FLOPs/irregular traffic but
        charges the regular matrix stream exactly once."""
        op = batch_operator
        S = 6
        X = _slab(rng, op.num_pixels, S)
        with obs.capture() as cap_batch:
            op.forward_batch(X)
        with obs.capture() as cap_single:
            op.forward(X[:, 0])
        assert cap_batch.total(obs.SPMV_CALLS) == S
        assert cap_batch.total(obs.SPMV_FLOPS) == S * cap_single.total(obs.SPMV_FLOPS)
        assert cap_batch.total(obs.SPMV_IRREGULAR_BYTES) == (
            S * cap_single.total(obs.SPMV_IRREGULAR_BYTES)
        )
        # The amortization the batched path exists for:
        assert cap_batch.total(obs.SPMV_REGULAR_BYTES) == cap_single.total(
            obs.SPMV_REGULAR_BYTES
        )

    def test_batch_span_attrs(self, batch_operator, rng):
        op = batch_operator
        with obs.capture() as cap:
            op.forward_batch(_slab(rng, op.num_pixels, 3))
        (sp,) = cap.find_spans("spmv.forward")
        assert sp.attrs["batch"] == 3


class TestMatrixOperatorBatch:
    def test_solver_base_operator(self, medium_matrix, rng):
        from repro.solvers import MatrixOperator

        op = MatrixOperator(medium_matrix)
        X = _slab(rng, op.num_pixels, 3)
        Y = op.forward_batch(X)
        for j in range(3):
            assert np.array_equal(Y[:, j], op.forward(X[:, j]))
        B = _slab(rng, op.num_rays, 3)
        Xb = op.adjoint_batch(B)
        for j in range(3):
            assert np.array_equal(Xb[:, j], op.adjoint(B[:, j]))
