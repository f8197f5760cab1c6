"""Tests for scan-based (order-preserving) sparse transposition."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix, randomized_transpose, scan_transpose


def _random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)


class TestScanTranspose:
    @pytest.mark.parametrize("seed", range(3))
    def test_numerically_equals_scipy_transpose(self, seed):
        S = _random_sparse(40, 25, 0.15, seed)
        T = scan_transpose(CSRMatrix.from_scipy(S))
        assert T.shape == (25, 40)
        y = np.random.default_rng(seed).random(40).astype(np.float32)
        np.testing.assert_allclose(T.spmv(y), S.T @ y, atol=1e-4)

    def test_preserves_intra_row_order(self):
        """Paper Section 3.5.1: within each output row, nonzeros appear
        in increasing former-row order."""
        S = _random_sparse(50, 30, 0.2, 7)
        T = scan_transpose(CSRMatrix.from_scipy(S))
        for r in range(T.num_rows):
            seg = T.ind[T.displ[r] : T.displ[r + 1]]
            assert np.all(np.diff(seg) >= 0)

    def test_double_transpose_is_identity(self):
        S = _random_sparse(20, 20, 0.25, 8)
        A = CSRMatrix.from_scipy(S)
        TT = scan_transpose(scan_transpose(A))
        np.testing.assert_allclose(TT.to_scipy().toarray(), A.to_scipy().toarray(), atol=1e-7)
        # and because scan transposition is canonical, layout matches too
        np.testing.assert_array_equal(TT.displ, A.sort_rows_by_index().displ)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_caller_owned_outputs_are_what_the_scan_fills(self, dtype):
        """``out`` is written in place and *is* the transpose's pair;
        the bits are those of the default allocation."""
        A = CSRMatrix.from_scipy(_random_sparse(40, 25, 0.15, 3), dtype=dtype)
        want = scan_transpose(A)
        ind, val = np.full(A.nnz, -1, np.int32), np.full(A.nnz, np.nan, dtype)
        got = scan_transpose(A, out=(ind, val))
        assert got.ind is ind and got.val is val
        for name in ("displ", "ind", "val"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_empty_matrix(self):
        A = CSRMatrix.from_scipy(sp.csr_matrix((5, 3), dtype=np.float32))
        T = scan_transpose(A)
        assert T.shape == (3, 5)
        assert T.nnz == 0

    def test_empty_columns_become_empty_rows(self):
        dense = np.zeros((4, 5), dtype=np.float32)
        dense[:, 1] = 1.0
        T = scan_transpose(CSRMatrix.from_scipy(sp.csr_matrix(dense)))
        np.testing.assert_array_equal(T.row_nnz(), [0, 4, 0, 0, 0])

    @given(seed=st.integers(0, 500), rows=st.integers(1, 30), cols=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_transpose_property(self, seed, rows, cols):
        S = _random_sparse(rows, cols, 0.2, seed)
        T = scan_transpose(CSRMatrix.from_scipy(S))
        np.testing.assert_allclose(T.to_scipy().toarray(), S.T.toarray(), atol=1e-6)


class TestRandomizedTranspose:
    def test_same_matrix_different_order(self):
        S = _random_sparse(60, 40, 0.25, 9)
        A = CSRMatrix.from_scipy(S)
        scan = scan_transpose(A)
        rand = randomized_transpose(A, seed=3)
        np.testing.assert_allclose(
            rand.to_scipy().toarray(), scan.to_scipy().toarray(), atol=1e-7
        )
        # ... but the intra-row order differs somewhere (locality destroyed)
        assert any(
            not np.array_equal(
                rand.ind[rand.displ[r] : rand.displ[r + 1]],
                scan.ind[scan.displ[r] : scan.displ[r + 1]],
            )
            for r in range(rand.num_rows)
        )

    def test_deterministic_per_seed(self):
        A = CSRMatrix.from_scipy(_random_sparse(20, 20, 0.3, 10))
        r1 = randomized_transpose(A, seed=5)
        r2 = randomized_transpose(A, seed=5)
        np.testing.assert_array_equal(r1.ind, r2.ind)
