"""The compiled row loops of ``repro.sparse.native`` against scipy's.

The loops are a build product of the host: compiled at first use into
the XDG cache, and replaced by scipy's loops, with the same bits, when
they cannot be built.  These tests hold the loops to scipy on drawn
matrices, and the loader to its promises: one warning and the same
bits on a failed build, one whole object from racing builds.
"""

import ctypes
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import CSRMatrix, native
from repro.sparse.csr import GATHER_MIN_COLUMNS, SCATTER_COLUMNS

DTYPES = (np.float32, np.float64)
needs_cc = pytest.mark.skipif(
    shutil.which(native.COMPILER) is None, reason="no C compiler on PATH"
)


@pytest.fixture()
def loops():
    if native.library() is None:
        pytest.skip("the compiled row loops are unavailable on this host")


@pytest.fixture()
def fresh_loader(tmp_path, monkeypatch):
    """A loader that has not resolved yet, over an empty kernel cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_resolved", False)
    monkeypatch.setattr(native, "_library", None)
    return tmp_path / "repro" / "kernels"


def _values(draw, dtype, shape):
    """Drawn floats (zeros, signed zeros, subnormals, round numbers), or
    normal deviates, whose sums round differently in another order."""
    if draw(st.booleans()):
        elements = st.floats(-1e3, 1e3, width=np.finfo(dtype).bits)
        return draw(hnp.arrays(dtype, shape, elements=elements))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(shape).astype(dtype)


@st.composite
def csr_matrices(draw):
    """A CSR matrix with empty rows, possibly no rows, columns or nonzeros."""
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    dtype = draw(st.sampled_from(DTYPES))
    counts = draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows))
    order = draw(st.randoms(use_true_random=False))
    ind = [c for n in counts for c in order.sample(range(cols), n)]
    displ = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    val = _values(draw, dtype, len(ind))
    return CSRMatrix(displ, np.array(ind, np.int32), val, cols, np.dtype(dtype).name)


def _slab(draw, n, width, dtype, layout):
    if layout == "vector":
        return _values(draw, dtype, n)
    if layout == "strided":
        return _values(draw, dtype, (n, 2 * width))[:, ::2]
    x = _values(draw, dtype, (n, width))
    return np.asfortranarray(x) if layout == "F" else x


WIDTHS = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 24])
LAYOUTS = st.sampled_from(["vector", "C", "F", "strided"])


@pytest.mark.usefixtures("loops")
class TestLoopsAreScipys:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), csr_matrices(), WIDTHS, LAYOUTS)
    def test_both_directions_of_every_drawn_case(self, data, matrix, width, layout):
        """``spmv`` / ``spmv_transposed`` (which pick native or scipy by
        width), the raw gather at every width and the raw scatter are
        ``array_equal`` to scipy's products on the same arrays."""
        view = matrix.to_scipy()
        dtype = matrix.val.dtype
        x = _slab(data.draw, matrix.num_cols, width, dtype, layout)
        y = _slab(data.draw, matrix.num_rows, width, dtype, layout)
        for got, want in (
            (matrix.spmv(x), view @ x),
            (matrix.spmv_transposed(y), view.T @ y),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if layout != "vector":
            assert np.array_equal(native.gather(matrix, x), view @ x)
        y8 = _slab(data.draw, matrix.num_rows, SCATTER_COLUMNS, dtype, layout.replace("vector", "C"))
        for got in (matrix.spmv_transposed(y8), native.scatter8(matrix, y8)):
            assert np.array_equal(got, view.T @ y8)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), csr_matrices(), st.integers(1, 5), st.sampled_from([8, 16, 40]))
    def test_partition_slices(self, data, matrix, size, width):
        """A partition slice (rebased ``displ``, views of ``ind`` / ``val``)
        gives scipy's rows of that range, both directions."""
        parts = -(-matrix.num_rows // size)
        p0 = data.draw(st.integers(0, parts))
        p1 = data.draw(st.integers(p0, parts))
        piece = matrix.partition_slice(p0, p1, size)
        view = piece.to_scipy()
        dtype = matrix.val.dtype
        x = _slab(data.draw, matrix.num_cols, width, dtype, "C")
        y = _slab(data.draw, piece.num_rows, 8, dtype, "C")
        assert np.array_equal(piece.spmv(x), view @ x)
        assert np.array_equal(piece.spmv_transposed(y), view.T @ y)

    def test_a_traced_plan(self, small_matrix, row_loops):
        """On a traced matrix, in both precisions, the dispatched kernels
        on either backend are scipy's products."""
        rng = np.random.default_rng(2)
        for dtype in DTYPES:
            matrix = small_matrix.astype(dtype)
            view = matrix.to_scipy()
            for width in (GATHER_MIN_COLUMNS, 16, 24):
                x = rng.standard_normal((matrix.num_cols, width)).astype(dtype)
                assert np.array_equal(matrix.spmv(x), view @ x)
            y = rng.standard_normal((matrix.num_rows, SCATTER_COLUMNS)).astype(dtype)
            assert np.array_equal(matrix.spmv_transposed(y), view.T @ y)

    def test_other_dtypes_run_scipy(self, small_matrix, native_calls):
        """A slab in another dtype than the values is scipy's promoted
        product: the loops take only their own dtype."""
        x = np.ones((small_matrix.num_cols, 8), np.float64)
        y = small_matrix.spmv(x)
        assert y.dtype == np.float64 and native_calls == []
        assert np.array_equal(y, small_matrix.to_scipy() @ x)


class TestLoader:
    def test_a_failed_build_warns_once_and_gives_the_same_bits(
        self, fresh_loader, monkeypatch, small_matrix
    ):
        monkeypatch.setattr(native, "COMPILER", str(fresh_loader / "no-such-cc"))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((small_matrix.num_cols, 8)).astype(np.float32)
        y = rng.standard_normal((small_matrix.num_rows, 8)).astype(np.float32)
        view = small_matrix.to_scipy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert np.array_equal(small_matrix.spmv(x), view @ x)
                assert np.array_equal(small_matrix.spmv_transposed(y), view.T @ y)
        assert [w.category for w in caught] == [native.NativeLoopsWarning]
        assert native.library() is None

    @needs_cc
    def test_a_failing_compiler_warns_with_its_message(self, fresh_loader, monkeypatch):
        broken = fresh_loader.parent / "broken.c"
        broken.parent.mkdir(parents=True)
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with pytest.warns(native.NativeLoopsWarning, match="error"):
            assert native.library() is None
        assert not list(fresh_loader.iterdir())  # no temporary file is left

    @needs_cc
    def test_the_object_is_built_once_and_keyed_by_its_flags(self, fresh_loader, monkeypatch):
        assert native.library() is not None
        built = list(fresh_loader.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        compile_ = native._compile

        def no_build(path):
            raise AssertionError("rebuilt a cached object")

        monkeypatch.setattr(native, "_compile", no_build)
        monkeypatch.setattr(native, "_resolved", False)
        assert native.library() is not None
        monkeypatch.setattr(native, "_compile", compile_)
        monkeypatch.setattr(native, "_resolved", False)
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g0",))
        assert native.library() is not None
        assert len(list(fresh_loader.iterdir())) == 2

    @needs_cc
    def test_two_processes_building_at_once_leave_one_loadable_object(self, fresh_loader):
        src = Path(native.__file__).parents[2]
        script = "from repro.sparse import native; assert native.library() is not None"
        env = {**os.environ, "XDG_CACHE_HOME": str(fresh_loader.parent.parent), "PYTHONPATH": str(src)}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        built = list(fresh_loader.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        lib = ctypes.CDLL(str(built[0]))
        assert lib.gather_f32 and lib.scatter8_f64
