"""Tests for the CSR container and baseline SpMV kernel."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix, csr_row_sums
from repro.sparse.csr import _concat_ranges

# Every kernel here runs on the compiled row loops and on scipy's.
pytestmark = pytest.mark.usefixtures("row_loops")


def _random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)


class TestContainer:
    def test_from_to_scipy_roundtrip(self):
        S = _random_sparse(20, 30, 0.1, 0)
        A = CSRMatrix.from_scipy(S)
        assert A.shape == (20, 30)
        assert A.nnz == S.nnz
        np.testing.assert_allclose(A.to_scipy().toarray(), S.toarray(), atol=1e-6)

    def test_dtypes(self):
        A = CSRMatrix.from_scipy(_random_sparse(5, 5, 0.3, 1))
        assert A.displ.dtype == np.int64
        assert A.ind.dtype == np.int32
        assert A.val.dtype == np.float32

    def test_from_scipy_copies_only_on_a_dtype_change(self):
        """An int32 index stream and values already in the asked dtype
        are the scipy matrix's own arrays; a widened value stream is
        the one copy."""
        S = _random_sparse(20, 30, 0.1, 2)
        assert S.indices.dtype == np.int32 and S.has_canonical_format
        A = CSRMatrix.from_scipy(S)
        assert np.shares_memory(A.ind, S.indices)
        assert np.shares_memory(A.val, S.data)
        wide = CSRMatrix.from_scipy(S, dtype="float64")
        assert np.shares_memory(wide.ind, S.indices)
        assert not np.shares_memory(wide.val, S.data)
        assert wide.val.dtype == np.float64 and np.array_equal(wide.val, S.data)
        long_indices = sp.csr_matrix(
            (S.data, S.indices.astype(np.int64), S.indptr.astype(np.int64)), shape=S.shape
        )
        narrowed = CSRMatrix.from_scipy(long_indices)
        assert narrowed.ind.dtype == np.int32 and np.array_equal(narrowed.ind, S.indices)

    def test_row_nnz(self):
        S = sp.csr_matrix(np.array([[1, 0, 2], [0, 0, 0], [3, 4, 5]], dtype=np.float32))
        A = CSRMatrix.from_scipy(S)
        np.testing.assert_array_equal(A.row_nnz(), [2, 0, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            CSRMatrix(displ=np.array([0, 2]), ind=np.array([0]), val=np.array([1.0]), num_cols=3)
        with pytest.raises(ValueError):
            CSRMatrix(displ=np.array([0, 1]), ind=np.array([0, 1]), val=np.array([1.0]), num_cols=3)


class TestSpMV:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy(self, seed):
        S = _random_sparse(60, 45, 0.12, seed)
        A = CSRMatrix.from_scipy(S)
        x = np.random.default_rng(seed).random(45).astype(np.float32)
        np.testing.assert_allclose(A.spmv(x), S @ x, atol=1e-4)

    def test_empty_rows_are_zero(self):
        S = sp.csr_matrix((3, 4), dtype=np.float32)
        A = CSRMatrix.from_scipy(S)
        np.testing.assert_array_equal(A.spmv(np.ones(4, dtype=np.float32)), np.zeros(3))

    def test_first_row_empty(self):
        """reduceat's empty-segment pitfall: an empty row 0 must not
        steal the first product."""
        dense = np.zeros((3, 3), dtype=np.float32)
        dense[1, 0] = 5.0
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        y = A.spmv(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(y, [0.0, 5.0, 0.0])

    def test_wrong_length_rejected(self):
        A = CSRMatrix.from_scipy(_random_sparse(4, 6, 0.5, 0))
        with pytest.raises(ValueError):
            A.spmv(np.ones(5, dtype=np.float32))

    @given(seed=st.integers(0, 1000), rows=st.integers(1, 40), cols=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_property(self, seed, rows, cols):
        S = _random_sparse(rows, cols, 0.2, seed)
        A = CSRMatrix.from_scipy(S)
        x = np.random.default_rng(seed + 1).standard_normal(cols).astype(np.float32)
        np.testing.assert_allclose(A.spmv(x), S @ x, atol=1e-3)

    def test_row_col_sums(self):
        dense = np.array([[1, 2, 0], [0, 0, 3]], dtype=np.float32)
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        np.testing.assert_allclose(A.row_sums(), [3, 3])
        np.testing.assert_allclose(A.col_sums(), [1, 2, 3])

    @staticmethod
    def _add_at_col_sums(A):
        out = np.zeros(A.num_cols, dtype=A.val.dtype)
        np.add.at(out, A.ind, A.val)
        return out

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("seed", range(4))
    def test_col_sums_are_the_sequential_scatter(self, seed, dtype):
        """Each column sums its rows in increasing row order from +0,
        as ``np.add.at`` over the stored stream does, bit for bit —
        including columns with no nonzero."""
        rng = np.random.default_rng(seed)
        S = _random_sparse(int(rng.integers(1, 60)), int(rng.integers(1, 60)), 0.2, seed)
        empty = S.shape[1] // 3
        keep = np.arange(S.shape[1]) >= empty  # zero-nnz columns before it
        masked = sp.csr_matrix(S.multiply(keep))
        masked.eliminate_zeros()
        A = CSRMatrix.from_scipy(masked, dtype=dtype)
        assert not np.bincount(A.ind, minlength=A.num_cols)[:empty].any()
        got = A.col_sums()
        assert got.dtype == np.dtype(dtype) and got.shape == (A.num_cols,)
        assert np.array_equal(got, self._add_at_col_sums(A))
        assert not got[:empty].any()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(0, 4), (3, 4), (4, 0)])
    def test_col_sums_of_an_empty_matrix(self, shape, dtype):
        A = CSRMatrix.from_scipy(sp.csr_matrix(shape, dtype=np.float32), dtype=dtype)
        got = A.col_sums()
        assert got.dtype == np.dtype(dtype) and np.array_equal(got, np.zeros(shape[1]))

    def test_transposed_product_checks_its_input(self):
        A = CSRMatrix.from_scipy(_random_sparse(6, 4, 0.5, 3))
        with pytest.raises(ValueError, match="expected 6"):
            A.spmv_transposed(np.ones(4, np.float32))
        with pytest.raises(ValueError, match="slab"):
            A.spmv_transposed(np.ones((6, 2, 1), np.float32))


class TestCsrRowSums:
    def test_basic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        displ = np.array([0, 2, 2, 4])
        np.testing.assert_allclose(csr_row_sums(vals, displ, 3), [3.0, 0.0, 7.0])

    def test_all_empty(self):
        np.testing.assert_array_equal(
            csr_row_sums(np.empty(0), np.zeros(4, dtype=np.int64), 3), np.zeros(3)
        )

    def test_trailing_empty_rows(self):
        vals = np.array([5.0])
        displ = np.array([0, 1, 1, 1])
        np.testing.assert_allclose(csr_row_sums(vals, displ, 3), [5.0, 0.0, 0.0])


class TestPermute:
    def test_row_permutation(self):
        S = _random_sparse(10, 8, 0.3, 2)
        A = CSRMatrix.from_scipy(S)
        perm = np.random.default_rng(0).permutation(10)
        x = np.random.default_rng(1).random(8).astype(np.float32)
        np.testing.assert_allclose(A.permute(perm, None).spmv(x), (S @ x)[perm], atol=1e-5)

    def test_col_permutation(self):
        S = _random_sparse(10, 8, 0.3, 3)
        A = CSRMatrix.from_scipy(S)
        colperm = np.random.default_rng(0).permutation(8)
        rank = np.empty(8, dtype=np.int64)
        rank[colperm] = np.arange(8)
        Ap = A.permute(None, rank)
        x = np.random.default_rng(1).random(8).astype(np.float32)
        xp = np.empty_like(x)
        xp[rank] = x
        np.testing.assert_allclose(Ap.spmv(xp), S @ x, atol=1e-5)

    def test_row_subset(self):
        """permute with a non-surjective row list extracts a submatrix."""
        S = _random_sparse(10, 8, 0.4, 4)
        A = CSRMatrix.from_scipy(S)
        rows = np.array([7, 2, 2, 0])
        x = np.random.default_rng(2).random(8).astype(np.float32)
        np.testing.assert_allclose(A.permute(rows, None).spmv(x), (S @ x)[rows], atol=1e-5)

    def test_sort_rows_by_index(self):
        S = _random_sparse(12, 12, 0.4, 5)
        A = CSRMatrix.from_scipy(S)
        perm = np.random.default_rng(0).permutation(12)
        rank = np.empty(12, dtype=np.int64)
        rank[perm] = np.arange(12)
        shuffled = A.permute(None, rank)
        sorted_ = shuffled.sort_rows_by_index()
        for r in range(12):
            seg = sorted_.ind[sorted_.displ[r] : sorted_.displ[r + 1]]
            assert np.all(np.diff(seg) >= 0)
        x = np.random.default_rng(3).random(12).astype(np.float32)
        np.testing.assert_allclose(sorted_.spmv(x), shuffled.spmv(x), atol=1e-5)

    def test_sort_is_the_stable_two_key_sort(self):
        """scipy's in-place sort gives what a stable (row, column)
        lexsort gives, values included, and leaves the input alone."""
        S = _random_sparse(40, 30, 0.3, 6)
        rank = np.random.default_rng(1).permutation(30)
        shuffled = CSRMatrix.from_scipy(S).permute(None, rank)
        before = shuffled.ind.copy()
        sorted_ = shuffled.sort_rows_by_index()
        row_ids = np.repeat(np.arange(40), shuffled.row_nnz())
        order = np.lexsort((shuffled.ind, row_ids))
        assert np.array_equal(sorted_.ind, shuffled.ind[order])
        assert np.array_equal(sorted_.val, shuffled.val[order])
        assert np.array_equal(sorted_.displ, shuffled.displ)
        assert np.array_equal(shuffled.ind, before)
        assert not np.shares_memory(sorted_.val, shuffled.val)

    def test_sort_is_fed_duplicate_free_rows(self):
        """The compiled sort is not stable, so a column held twice in a
        row has no defined order: ``from_scipy`` sums duplicates before
        they can reach it, and a hand-built matrix with one is refused."""
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0, 4.0], np.float32), ([0, 0, 1], [3, 3, 0])), shape=(2, 5)
        )
        A = CSRMatrix.from_scipy(coo).sort_rows_by_index()
        assert A.nnz == 2 and A.val.tolist() == [3.0, 4.0]
        twice = CSRMatrix(displ=[0, 3], ind=[4, 1, 4], val=[1.0, 2.0, 3.0], num_cols=5)
        with pytest.raises(ValueError, match="more than once"):
            twice.sort_rows_by_index()


class TestConcatRanges:
    def test_basic(self):
        out = _concat_ranges(np.array([5, 0, 10]), np.array([2, 3, 1]))
        np.testing.assert_array_equal(out, [5, 6, 0, 1, 2, 10])

    def test_with_zero_counts(self):
        out = _concat_ranges(np.array([3, 7, 1]), np.array([0, 2, 0]))
        np.testing.assert_array_equal(out, [7, 8])

    def test_empty(self):
        assert _concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert _concat_ranges(np.array([1, 2]), np.array([0, 0])).size == 0
