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

# Every kernel here runs on the compiled row loops and on scipy's.
pytestmark = pytest.mark.usefixtures("row_loops")


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
    "parallel": ParallelBeamGeometry(15, 12),  # odd M: a csr plan of A itself
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


@pytest.mark.parametrize("angles", [23, 24], ids=["plan-of-A", "orbit"])
def test_thread_engine_partitions_the_derived_transpose(angles):
    """``thread:2`` splits the csr adjoint by pixel rows of the derived
    ``A^T`` — of ``Q^T`` on an orbit plan, whose gathers stay with the
    caller and which derives neither ``A`` nor ``A^T``; its CG image
    equals the serial kernels' bit for bit."""
    geometry = ParallelBeamGeometry(angles, 16)
    op, _ = preprocess(geometry, config=OperatorConfig(workers="serial"))
    orbit = op.plan is not op.stored
    assert orbit == (angles % 2 == 0)
    sinogram = np.random.default_rng(3).random(geometry.sinogram_shape)
    serial = reconstruct(sinogram, geometry, iterations=4, operator=op).image
    assert op._transpose is None
    op.set_workers("thread:2")
    try:
        parallel = reconstruct(sinogram, geometry, iterations=4, operator=op).image
        assert (op._transpose is None) == orbit
        assert (op._matrix is None) == orbit
    finally:
        op.close()
    assert np.array_equal(parallel, serial)


# -- the orbit kernel --------------------------------------------------------


@pytest.mark.parametrize("dtype", ADJOINT_DTYPES)
class TestOrbitKernel:
    """A half-turn csr plan (even ``M``) runs both directions as
    8-column SpMMs over ``Q``: a slab column is the vector call's bit
    for bit, the products are ``A``'s to rounding (a row sums in
    ``Q``'s column order), and the pair is adjoint to rounding."""

    @pytest.fixture(scope="class")
    def ops(self):
        geometry = ParallelBeamGeometry(16, 12)
        return {
            dtype: preprocess(
                geometry, config=OperatorConfig(dtype=name, workers="serial")
            )[0]
            for dtype, name in ADJOINT_DTYPES.items()
        }

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("S", [1, 2, 4, 16])
    def test_slab_columns_are_the_vector_calls(self, ops, dtype, S, layout):
        op = ops[dtype]
        assert op.plan.slots == 8 and op.stored.num_rows < op.num_rays
        rng = np.random.default_rng(S)
        for direction, rows in (("forward", op.num_pixels), ("adjoint", op.num_rays)):
            apply = getattr(op, direction)
            slab = _slab(rng, rows, S, layout, op.compute_dtype)
            got = apply(slab)
            for j in range(S):
                assert np.array_equal(got[:, j], apply(np.ascontiguousarray(slab[:, j])))
        assert op._matrix is None and op._transpose is None

    def test_products_are_a_s_to_rounding_and_adjoint(self, ops, dtype):
        op = ops[dtype]
        rng = np.random.default_rng(5)
        x = rng.standard_normal(op.num_pixels).astype(op.compute_dtype)
        y = rng.standard_normal(op.num_rays).astype(op.compute_dtype)
        fwd, adj = op.forward(x), op.adjoint(y)
        scale = np.abs(op.matrix.to_scipy()) @ np.abs(x)
        eps = np.finfo(op.compute_dtype).eps
        assert (np.abs(fwd - op.matrix.spmv(x)) <= 16 * eps * scale).all()
        np.testing.assert_allclose(adj, op.matrix.spmv_transposed(y), rtol=1e-5, atol=1e-5)
        lhs = float(np.dot(fwd.astype(np.float64), y))
        rhs = float(np.dot(x, adj.astype(np.float64)))
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        assert gap < (1e-10 if op.compute_dtype == np.float64 else 1e-6)


TRIVIAL_GEOMETRIES = {
    "fan": FanBeamGeometry(16, 12, source_distance=40.0),
    "cone": ConeBeamGeometry(8, 4, 6, source_distance=30.0),
    "full-turn": ParallelBeamGeometry(16, 12, angle_range=2 * np.pi),
    "odd-M": ParallelBeamGeometry(15, 12),
}


@pytest.mark.parametrize("kind", TRIVIAL_GEOMETRIES)
def test_a_scan_without_an_8_slot_group_keeps_the_plan_of_a(
    kind, row_loops, native_calls, monkeypatch
):
    """Fan, cone, parallel not over pi and odd ``M``: the csr plan is
    ``A`` itself — for odd ``M`` each ray its traced ray moved by its
    slot, bit for bit — and a vector runs scipy's 1-D ``csr_matvec``; an
    orbit plan's vector call is one 8-column gather: the compiled one,
    or scipy's ``csr_matvecs`` on the fallback."""
    from scipy.sparse import _sparsetools

    from repro.sparse import orbit_group

    from .test_view_symmetry import assert_each_ray_is_its_traced_ray_moved

    geometry = TRIVIAL_GEOMETRIES[kind]
    op, _ = preprocess(geometry, config=OperatorConfig(workers="serial"))
    assert orbit_group(geometry) is None and op.plan is op.matrix
    if kind == "odd-M":
        assert_each_ray_is_its_traced_ray_moved(
            geometry, op.matrix, op.sino_ordering.rank, op.tomo_ordering.rank
        )
    widths = []
    for name in ("csr_matvec", "csr_matvecs"):
        real = getattr(_sparsetools, name)

        def spy(*args, real=real, name=name):
            widths.append(args[2] if name == "csr_matvecs" else None)
            return real(*args)

        monkeypatch.setattr(_sparsetools, name, spy)
    op.forward(np.ones(op.num_pixels))
    assert widths == [None] and native_calls == []
    orbit, _ = preprocess(ParallelBeamGeometry(16, 12), config=OperatorConfig(workers="serial"))
    orbit.forward(np.ones(orbit.num_pixels))
    if row_loops == "native":
        assert widths == [None] and native_calls == [("gather", 8)]
    else:
        assert widths == [None, 8] and native_calls == []
