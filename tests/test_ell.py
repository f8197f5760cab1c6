"""Tests for partition-padded ELL storage (GPU-style layout)."""

import pickle
import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cachesim import ell_lockstep_spmv
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.io import save_operator
from repro.sparse import CSRMatrix, build_ell


def _random_sparse(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    return sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)


class TestELL:
    @pytest.mark.parametrize("partition_size", [1, 4, 16, 64])
    def test_spmv_matches_csr(self, partition_size):
        S = _random_sparse(50, 37, 0.15, 0)
        A = CSRMatrix.from_scipy(S)
        E = build_ell(A, partition_size)
        x = np.random.default_rng(1).random(37).astype(np.float32)
        # The same products added in the same order by two compiled
        # loops; a padded slot adds 0 * x[0] = 0.
        assert np.array_equal(E.spmv(x), A.spmv(x))

    def test_partition_level_padding_beats_matrix_level(self):
        """One long row must only pad its own partition — the point of
        partition-level ELL (paper Section 3.1.4)."""
        dense = np.zeros((32, 32), dtype=np.float32)
        dense[:, 0] = 1.0  # every row has 1 nnz ...
        dense[0, :] = 1.0  # ... except row 0, which has 32
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        E = build_ell(A, partition_size=8)
        matrix_level_padded = 32 * 32  # global width = 32
        assert E.padded_nnz < matrix_level_padded
        assert E.widths[0] == 32 and (E.widths[1:] == 1).all()

    def test_padded_slots_are_zero(self):
        A = CSRMatrix.from_scipy(_random_sparse(20, 20, 0.2, 2))
        E = build_ell(A, 8)
        for ind, val in zip(E.ind_slabs, E.val_slabs):
            pad = val == 0
            assert (ind[pad] == 0).all()

    def test_padding_overhead_range(self):
        A = CSRMatrix.from_scipy(_random_sparse(40, 40, 0.2, 3))
        E = build_ell(A, 8)
        assert 0.0 <= E.padding_overhead < 1.0

    def test_empty_partition_tail(self):
        """Row count not divisible by partition size."""
        S = _random_sparse(13, 9, 0.4, 4)
        A = CSRMatrix.from_scipy(S)
        E = build_ell(A, 5)
        assert E.partitions.num_partitions == 3
        x = np.random.default_rng(5).random(9).astype(np.float32)
        assert np.array_equal(E.spmv(x), A.spmv(x))

    def test_wrong_input_length_rejected(self):
        E = build_ell(CSRMatrix.from_scipy(_random_sparse(6, 7, 0.5, 6)), 4)
        with pytest.raises(ValueError):
            E.spmv(np.ones(6, dtype=np.float32))

    def test_traced_matrix(self, small_matrix):
        E = build_ell(small_matrix, 16)
        x = np.random.default_rng(7).random(small_matrix.num_cols).astype(np.float32)
        np.testing.assert_allclose(E.spmv(x), small_matrix.spmv(x), rtol=1e-4, atol=1e-4)

    def test_padded_slots_are_multiplied_not_skipped(self):
        """Stated behaviour of the padding (paper §3.1.4: redundant work
        in place of a branch): a padded slot computes ``0 * x[0]``, so a
        non-finite ``x[0]`` turns every padded row NaN — on ELL, not on
        CSR, which stores no padding."""
        S = _random_sparse(40, 30, 0.2, 8).tolil()
        S[:, 0] = 0  # no row really reads x[0]
        A = CSRMatrix.from_scipy(S.tocsr())
        E = build_ell(A, 8)
        x = np.random.default_rng(9).random(30).astype(np.float32)
        x[0] = np.inf
        padded = A.row_nnz() < np.repeat(E.widths, 8)[:40]
        assert padded.any() and not padded.all()
        assert np.isfinite(A.spmv(x)).all()
        assert np.array_equal(np.isnan(E.spmv(x)), padded)
        assert np.array_equal(E.spmv(x)[~padded], A.spmv(x)[~padded])


VALUE_AND_INPUT = {
    "float32": ("float32", np.float32),
    "mixed": ("float32", np.float64),
    "float64": ("float64", np.float64),
    "widened": ("float64", np.float32),  # stored values are never rounded to x
}


def _ragged_matrix(value_dtype):
    """203 rows (a ragged last partition at 5, 64 and 128), rows 10-19
    empty (zero-width partitions at size 5) and one long row."""
    S = _random_sparse(203, 61, 0.12, 10).tolil()
    S[10:20, :] = 0
    S[100, :] = 1.5
    return CSRMatrix.from_scipy(S.tocsr(), dtype=value_dtype)


@pytest.mark.parametrize("partition_size", [1, 5, 64, 128])
@pytest.mark.parametrize("shape", [(), (1,), (8,)], ids=["vector", "slab1", "slab8"])
@pytest.mark.parametrize("dtype", VALUE_AND_INPUT)
class TestLockstepReference:
    """The kernel reads each column-major slab in place, in warp order;
    ``cachesim.ell_lockstep_spmv`` is that order written out in numpy."""

    def test_kernel_is_the_lockstep_loop(self, dtype, shape, partition_size):
        value_dtype, input_dtype = VALUE_AND_INPUT[dtype]
        A = _ragged_matrix(value_dtype)
        E = build_ell(A, partition_size)
        if partition_size == 5:
            assert (E.widths == 0).any() and E.partitions.bounds(40) == (200, 203)
        x = np.random.default_rng(11).standard_normal((61,) + shape).astype(input_dtype)
        y = E.spmv(x)
        assert y.dtype == np.result_type(value_dtype, input_dtype)
        assert y.shape == (203,) + shape
        assert np.array_equal(y, ell_lockstep_spmv(E, x))
        assert np.array_equal(y, A.spmv(x))
        # Any memory order of the same numbers.
        wide = np.repeat(x, 2, axis=0)[::2]
        assert not wide.flags.c_contiguous and np.array_equal(E.spmv(wide), y)
        if shape:
            assert np.array_equal(E.spmv(np.asfortranarray(x)), y)

    def test_no_rows(self, dtype, shape, partition_size):
        value_dtype, input_dtype = VALUE_AND_INPUT[dtype]
        A = CSRMatrix.from_scipy(sp.csr_matrix((0, 7), dtype=np.float32), dtype=value_dtype)
        E = build_ell(A, partition_size)
        x = np.ones((7,) + shape, dtype=input_dtype)
        y = E.spmv(x)
        # No slab, no record of the value dtype: the result follows x.
        assert y.shape == (0,) + shape and y.dtype == input_dtype
        assert np.array_equal(y, ell_lockstep_spmv(E, x))


@pytest.mark.parametrize("dtype", VALUE_AND_INPUT)
def test_slab_without_the_slab_entry_point(dtype, monkeypatch):
    """On a scipy without ``coo_matmat_dense`` a slab is streamed one
    column at a time through ``coo_matvec``: slower, same bits."""
    import repro.sparse.ell as ell_module

    value_dtype, input_dtype = VALUE_AND_INPUT[dtype]
    E = build_ell(_ragged_matrix(value_dtype), 64)
    x = np.random.default_rng(13).standard_normal((61, 8)).astype(input_dtype)
    y = E.spmv(x)
    monkeypatch.setattr(ell_module, "_coo_matmat_dense", None)
    by_column = E.spmv(x)
    assert by_column.dtype == y.dtype and np.array_equal(by_column, y)


def test_sparsetools_entry_points():
    """``ELLPartitioned.spmv`` calls two private scipy loops directly
    (the public ``coo_matrix(...) @ x`` re-validates every index of
    every slab on every call: 19 against 4 ms per SpMV at 180x128).
    If scipy moves or re-signs them, fail here, by name (a missing
    ``coo_matmat_dense`` is survived at run time, one column at a
    time, so this is where its loss is noticed)."""
    from scipy.sparse import _sparsetools

    row = np.array([1, 0, 1], dtype=np.int32)
    col = np.array([0, 1, 1], dtype=np.int32)
    val = np.array([2.0, 3.0, 4.0], dtype=np.float32)
    x = np.array([[1.0, 10.0], [5.0, 50.0]], dtype=np.float32)
    expected = np.array([[15.0, 150.0], [22.0, 220.0]], dtype=np.float32)
    cases = {  # name -> (arguments ahead of the output, expected output)
        "coo_matvec": ((3, row, col, val, x[:, 0].copy()), expected[:, 0]),
        "coo_matmat_dense": ((3, 2, row, col, val, x.ravel()), expected.ravel()),
    }
    for name, (args, want) in cases.items():
        entry = getattr(_sparsetools, name, None)
        assert entry is not None, f"scipy.sparse._sparsetools.{name} is gone"
        y = np.zeros_like(want)
        try:
            entry(*args, y)
        except (TypeError, ValueError) as exc:
            pytest.fail(f"scipy.sparse._sparsetools.{name} changed signature: {exc}")
        assert np.array_equal(y, want), name


@pytest.fixture(scope="module")
def stack_ell():
    """The ELL layout of the ``stack16`` benchmark scan's ``A`` (180x128,
    float32).  That scan has an 8-slot ray group, so its ELL operator
    runs the orbit kernel and builds no layout: this is the one its
    plan ran before format v6, built from ``A`` directly."""
    config = OperatorConfig(kernel="ell", dtype="float32", workers="serial")
    op = preprocess(ParallelBeamGeometry(180, 128), config=config)[0]
    assert op.ell_forward is None and op._orbit_kernel
    return build_ell(op.matrix, config.partition_size)


class TestNothingDerived:
    """The kernel keeps no state: a call allocates slab-sized scratch,
    and what a layout pickles or archives is the same before and after."""

    def test_a_call_allocates_nothing_nnz_sized(self, stack_ell):
        ell = stack_ell
        x = np.random.default_rng(12).standard_normal((ell.num_cols, 8))
        slab = int(ell.widths.max()) * ell.partitions.partition_size
        for dtype in (np.float32, np.float64):  # stored dtype, then a cast per slab
            xs = x.astype(dtype)
            ell.spmv(xs)
            tracemalloc.start()
            try:
                y = ell.spmv(xs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Result + int32 row ids + (fp64 only) one slab's values cast.
            cast = slab * 8 if dtype is np.float64 else 0
            assert peak <= y.nbytes + slab * 4 + cast + 64 * ell.num_rows
            assert peak < ell.padded_nnz  # under 1 B per stored element

    @pytest.mark.parametrize("angles", [35, 36])
    @pytest.mark.parametrize("dtype", [None, "float32", "float64"])
    def test_pickle_and_archive_are_blind_to_kernel_calls(self, tmp_path, dtype, angles):
        """35 views have no 8-slot group, so the ELL layouts are built;
        an ELL plan of 36 views is ``Q`` alone."""
        def members(path):
            with zipfile.ZipFile(path) as archive:
                return [(i.filename, i.file_size, i.CRC) for i in archive.infolist()]

        config = OperatorConfig(
            kernel="ell", dtype=dtype, partition_size=32, workers="serial"
        )
        op = preprocess(ParallelBeamGeometry(angles, 24), config=config)[0]
        layouts = [e for e in (op.ell_forward, op.ell_adjoint) if e is not None]
        assert len(layouts) == (2 if angles % 2 else 0)
        fields = [set(vars(e)) for e in layouts]
        pickled = [pickle.dumps(e) for e in layouts]
        save_operator(tmp_path / "before.npz", op, compress=False)
        x = np.ones((op.num_pixels, 3), dtype=op.compute_dtype)
        op.adjoint(op.forward(x))
        op.adjoint(op.forward(x[:, 0]))
        assert [set(vars(e)) for e in layouts] == fields
        assert [pickle.dumps(e) for e in layouts] == pickled
        save_operator(tmp_path / "after.npz", op, compress=False)
        assert members(tmp_path / "after.npz") == members(tmp_path / "before.npz")
