"""Differential kernel tests: every layout against the CSR baseline.

The buffered and ELL layouts are *re-layouts* of the same matrix — in
float64 their forward/adjoint products must match the CSR kernel to
``rtol=1e-12`` (the only permitted difference is floating-point
reassociation across buffer stages).  Randomized traced geometries are
seeded; degenerate shapes (empty rows, single-row partitions, a buffer
smaller than one partition's working set) get explicit cases.
"""

import numpy as np
import pytest

from repro.cachesim import listing3_spmv
from repro.core import OperatorConfig, preprocess, reconstruct
from repro.geometry import ConeBeamGeometry, FanBeamGeometry, ParallelBeamGeometry
from repro.sparse import (
    CSRMatrix,
    build_buffered,
    build_ell,
    scan_transpose,
)
from repro.trace import build_projection_matrix

TOL = dict(rtol=1e-12, atol=1e-12)


def _random_geometry_matrix(seed: int) -> CSRMatrix:
    """Trace a randomized small parallel-beam scan (seeded)."""
    rng = np.random.default_rng(seed)
    angles = int(rng.integers(6, 30))
    channels = int(rng.integers(9, 25))
    raw = build_projection_matrix(ParallelBeamGeometry(angles, channels))
    return CSRMatrix.from_scipy(raw).sort_rows_by_index()


def _apply_buffered(A, x, partition_size, buffer_bytes):
    return build_buffered(A, partition_size, buffer_bytes).spmv(x)


def _apply_ell(A, x, partition_size):
    return build_ell(A, partition_size).spmv(x)


class TestRandomizedGeometries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_forward_matches_csr(self, seed, kernel):
        A = _random_geometry_matrix(seed)
        x = np.random.default_rng(seed + 100).standard_normal(A.num_cols)
        ref = A.spmv(x)
        if kernel == "buffered":
            out = _apply_buffered(A, x, partition_size=16, buffer_bytes=256)
        else:
            out = _apply_ell(A, x, partition_size=16)
        np.testing.assert_allclose(out, ref, **TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_adjoint_matches_csr(self, seed, kernel):
        AT = scan_transpose(_random_geometry_matrix(seed))
        y = np.random.default_rng(seed + 200).standard_normal(AT.num_cols)
        ref = AT.spmv(y)
        if kernel == "buffered":
            out = _apply_buffered(AT, y, partition_size=16, buffer_bytes=256)
        else:
            out = _apply_ell(AT, y, partition_size=16)
        np.testing.assert_allclose(out, ref, **TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_buffered_loop_and_vectorized_agree(self, seed):
        """Listing-3 literal loops vs the whole-array evaluation."""
        A = _random_geometry_matrix(seed)
        buf = build_buffered(A, partition_size=8, buffer_bytes=128)
        x = np.random.default_rng(seed + 300).standard_normal(A.num_cols)
        np.testing.assert_allclose(listing3_spmv(buf, x), buf.spmv(x), **TOL)


class TestDegenerateShapes:
    def _matrix_with_empty_rows(self) -> CSRMatrix:
        """Rows 0, 3, and the last two rows have no nonzeros."""
        import scipy.sparse as sp

        dense = np.zeros((9, 7), dtype=np.float32)
        rng = np.random.default_rng(7)
        for row in (1, 2, 4, 5, 6):
            cols = rng.choice(7, size=3, replace=False)
            dense[row, cols] = rng.random(3).astype(np.float32)
        return CSRMatrix.from_scipy(sp.csr_matrix(dense))

    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_empty_rows(self, kernel):
        A = self._matrix_with_empty_rows()
        x = np.random.default_rng(1).standard_normal(A.num_cols)
        ref = A.spmv(x)
        if kernel == "buffered":
            out = _apply_buffered(A, x, partition_size=4, buffer_bytes=16)
        else:
            out = _apply_ell(A, x, partition_size=4)
        np.testing.assert_allclose(out, ref, **TOL)
        # Empty rows produce exact zeros in every layout.
        assert out[0] == 0.0 and out[3] == 0.0 and out[-1] == 0.0

    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_single_row_partitions(self, kernel):
        """partition_size=1: one partition per row, ragged everywhere."""
        A = _random_geometry_matrix(5)
        x = np.random.default_rng(6).standard_normal(A.num_cols)
        ref = A.spmv(x)
        if kernel == "buffered":
            out = _apply_buffered(A, x, partition_size=1, buffer_bytes=64)
        else:
            out = _apply_ell(A, x, partition_size=1)
        np.testing.assert_allclose(out, ref, **TOL)

    def test_buffer_smaller_than_partition_working_set(self):
        """A one-element buffer forces one stage per distinct input."""
        A = _random_geometry_matrix(8)
        buf = build_buffered(A, partition_size=32, buffer_bytes=4)
        assert buf.buffer_elements == 1
        # Every partition needs as many stages as distinct inputs.
        assert buf.num_stages >= A.num_rows / 32
        x = np.random.default_rng(9).standard_normal(A.num_cols)
        np.testing.assert_allclose(buf.spmv(x), A.spmv(x), **TOL)
        np.testing.assert_allclose(listing3_spmv(buf, x), A.spmv(x), **TOL)

    def test_partition_larger_than_matrix(self):
        """A single partition spanning all rows (padded slots unused)."""
        A = _random_geometry_matrix(4)
        x = np.random.default_rng(10).standard_normal(A.num_cols)
        ref = A.spmv(x)
        np.testing.assert_allclose(
            _apply_buffered(A, x, partition_size=4 * A.num_rows, buffer_bytes=65536),
            ref,
            **TOL,
        )
        np.testing.assert_allclose(
            _apply_ell(A, x, partition_size=4 * A.num_rows), ref, **TOL
        )


# -- the csr adjoint reads A ------------------------------------------------

ADJOINT_GEOMETRIES = {
    "parallel": ParallelBeamGeometry(16, 12),
    "fan": FanBeamGeometry(16, 12, source_distance=40.0),
    "cone": ConeBeamGeometry(8, 4, 6, source_distance=30.0),
}
ADJOINT_DTYPES = {"mixed": None, "float32": "float32", "float64": "float64"}


def _slab(rng, rows, S, layout, dtype):
    """A ``(rows, S)`` right-hand side (``(rows,)`` for ``S = 1``
    vector), C- or F-ordered, or a strided view whose columns run
    backwards through a twice-as-wide array."""
    if layout == "vector":
        return rng.standard_normal(rows).astype(dtype)
    if layout == "strided":
        wide = rng.standard_normal((rows, 2 * S)).astype(dtype)
        return wide[:, ::-2]
    order = "F" if layout == "F" else "C"
    return np.asarray(rng.standard_normal((rows, S)).astype(dtype), order=order)


@pytest.fixture(scope="module")
def csr_operators():
    return {
        (kind, dtype): preprocess(
            geometry,
            config=OperatorConfig(dtype=ADJOINT_DTYPES[dtype], workers="serial"),
        )[0]
        for kind, geometry in ADJOINT_GEOMETRIES.items()
        for dtype in ADJOINT_DTYPES
    }


@pytest.mark.parametrize("dtype", ADJOINT_DTYPES)
@pytest.mark.parametrize("kind", ADJOINT_GEOMETRIES)
class TestAdjointReadsA:
    """The csr operator's adjoint runs scipy's CSC loop over ``A``'s own
    arrays; it is the scan transpose's gather, bit for bit: each pixel
    sums its rays in increasing ray order, from +0, with the same
    products."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("S", [1, 2, 4, 16])
    def test_adjoint_is_the_scan_transposes_gather(
        self, csr_operators, kind, dtype, S, layout
    ):
        op = csr_operators[(kind, dtype)]
        rng = np.random.default_rng(S)
        transpose = scan_transpose(op.matrix)
        for shape in ("vector", layout) if S == 1 else (layout,):
            y = _slab(rng, op.num_rays, S, shape, op.compute_dtype)
            got = op.adjoint(y)
            want = transpose.spmv(y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), shape
        assert op._transpose is None


def test_process_engine_partitions_the_derived_transpose():
    """``process:2`` splits the csr adjoint by pixel rows of the derived
    ``A^T``; its CG image equals the serial CSC loop's bit for bit."""
    geometry = ParallelBeamGeometry(24, 16)
    op, _ = preprocess(geometry, config=OperatorConfig(workers="serial"))
    sinogram = np.random.default_rng(3).random(geometry.sinogram_shape)
    serial = reconstruct(sinogram, geometry, iterations=4, operator=op).image
    assert op._transpose is None
    op.set_workers("process:2")
    try:
        parallel = reconstruct(sinogram, geometry, iterations=4, operator=op).image
        assert op._transpose is not None
    finally:
        op.close()
    assert np.array_equal(parallel, serial)
