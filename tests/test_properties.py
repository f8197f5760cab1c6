"""Property-based invariants spanning the core data structures.

These are the load-bearing algebraic facts the system relies on:
linearity of every SpMV kernel, exact adjointness of the transpose
pair, bijectivity of every ordering, and equality of all kernel/layout
variants on arbitrary inputs.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import FanBeamGeometry, ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix, build_buffered, build_ell, scan_transpose
from repro.trace import build_projection_matrix


def _random_matrix(rows, cols, seed, density=0.2):
    rng = np.random.default_rng(seed)
    S = sp.random(rows, cols, density=density, random_state=rng, format="csr", dtype=np.float32)
    return CSRMatrix.from_scipy(S).sort_rows_by_index()


class TestKernelAlgebra:
    @given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_spmv_linearity(self, seed, a, b):
        A = _random_matrix(30, 25, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(25).astype(np.float32)
        y = rng.standard_normal(25).astype(np.float32)
        combined = A.spmv((a * x + b * y).astype(np.float32))
        split = a * A.spmv(x) + b * A.spmv(y)
        np.testing.assert_allclose(combined, split, atol=1e-3)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_inner_product(self, seed):
        """<A x, y> == <x, A^T y> for the scan-transposed pair."""
        A = _random_matrix(40, 30, seed)
        AT = scan_transpose(A)
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal(30).astype(np.float32)
        y = rng.standard_normal(40).astype(np.float32)
        lhs = float(A.spmv(x).astype(np.float64) @ y)
        rhs = float(x.astype(np.float64) @ AT.spmv(y))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-3)

    @given(
        seed=st.integers(0, 10**6),
        partition=st.sampled_from([1, 7, 16]),
        buffer_elems=st.sampled_from([2, 8, 64]),
    )
    @settings(max_examples=20, deadline=None)
    def test_all_layouts_agree(self, seed, partition, buffer_elems):
        A = _random_matrix(35, 28, seed)
        rng = np.random.default_rng(seed + 3)
        x = rng.standard_normal(28).astype(np.float32)
        ref = A.spmv(x)
        np.testing.assert_allclose(build_ell(A, partition).spmv(x), ref, atol=1e-3)
        buf = build_buffered(A, partition, buffer_elems * 4)
        np.testing.assert_allclose(buf.spmv(x), ref, atol=1e-3)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_double_transpose_identity(self, seed):
        A = _random_matrix(25, 25, seed)
        TT = scan_transpose(scan_transpose(A))
        np.testing.assert_allclose(
            TT.to_scipy().toarray(), A.to_scipy().toarray(), atol=1e-6
        )


class TestOrderingAlgebra:
    @given(
        rows=st.integers(2, 24),
        cols=st.integers(2, 24),
        name=st.sampled_from(["morton", "hilbert", "pseudo-hilbert"]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_reorder_preserves_multiset(self, rows, cols, name, seed):
        o = make_ordering(name, rows, cols)
        data = np.random.default_rng(seed).standard_normal(rows * cols)
        reordered = o.to_ordered(data)
        assert sorted(reordered.tolist()) == sorted(data.tolist())
        np.testing.assert_array_equal(o.from_ordered(reordered).ravel(), data)

    @given(rows=st.integers(2, 20), cols=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_permutation_consistency(self, rows, cols):
        o = make_ordering("pseudo-hilbert", rows, cols)
        np.testing.assert_array_equal(o.perm[o.rank], np.arange(rows * cols))
        np.testing.assert_array_equal(o.rank[o.perm], np.arange(rows * cols))


def _traced_matrix(beam: str, channels: int) -> CSRMatrix:
    """Trace a small scan; grid is ``channels x channels`` (odd or even)."""
    if beam == "parallel":
        raw = build_projection_matrix(ParallelBeamGeometry(14, channels))
    else:
        raw = build_projection_matrix(
            FanBeamGeometry(14, channels, source_distance=3.0 * channels)
        )
    return CSRMatrix.from_scipy(raw).sort_rows_by_index()


def _kernel_pair(A: CSRMatrix, kernel: str):
    """(forward, adjoint) callables of one kernel over the scan pair.

    Small partitions and a deliberately tiny buffer force the buffered
    kernel through its multi-stage path.
    """
    AT = scan_transpose(A)
    if kernel == "csr":
        return A.spmv, AT.spmv
    if kernel == "buffered":
        fwd = build_buffered(A, partition_size=8, buffer_bytes=64)
        adj = build_buffered(AT, partition_size=8, buffer_bytes=64)
        return fwd.spmv, adj.spmv
    fwd = build_ell(A, partition_size=8)
    adj = build_ell(AT, partition_size=8)
    return fwd.spmv, adj.spmv


class TestAdjointnessBattery:
    """⟨Ax, y⟩ == ⟨x, Aᵀy⟩ for every kernel × geometry × grid parity.

    The paper's gather-only adjoint argument (Section 3.2) must hold
    for all three kernel layouts, not just the default, on both beam
    geometries and on odd- and even-sized grids (odd sizes exercise
    the ragged last partition and non-power-of-two orderings).
    """

    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    @pytest.mark.parametrize("channels", [15, 16], ids=["odd-grid", "even-grid"])
    def test_adjoint_inner_product(self, kernel, beam, channels):
        A = _traced_matrix(beam, channels)
        forward, adjoint = _kernel_pair(A, kernel)
        rng = np.random.default_rng(channels * 1000 + len(beam))
        x = rng.standard_normal(A.num_cols)
        y = rng.standard_normal(A.num_rows)
        lhs = float(np.asarray(forward(x), dtype=np.float64) @ y)
        rhs = float(x @ np.asarray(adjoint(y), dtype=np.float64))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestTracedOperatorProperties:
    @given(angles=st.integers(4, 20), channels=st.sampled_from([8, 12, 16]))
    @settings(max_examples=10, deadline=None)
    def test_projection_is_nonnegative_operator(self, angles, channels):
        """A has non-negative entries: projecting a non-negative image
        yields a non-negative sinogram."""
        g = ParallelBeamGeometry(angles, channels)
        A = CSRMatrix.from_scipy(build_projection_matrix(g))
        x = np.abs(np.random.default_rng(0).standard_normal(A.num_cols)).astype(np.float32)
        assert (A.spmv(x) >= -1e-6).all()

    @given(angles=st.integers(4, 16))
    @settings(max_examples=8, deadline=None)
    def test_mass_preservation_per_angle(self, angles):
        """Summing a projection over channels integrates the image:
        every angle sees the same total mass (within discretization)."""
        g = ParallelBeamGeometry(angles, 16)
        A = CSRMatrix.from_scipy(build_projection_matrix(g))
        rng = np.random.default_rng(1)
        img = np.zeros((16, 16))
        img[4:12, 4:12] = rng.random((8, 8))  # interior support
        y = A.spmv(img.reshape(-1).astype(np.float32)).reshape(angles, 16)
        masses = y.sum(axis=1)
        assert masses.max() - masses.min() < 0.05 * masses.mean()


class TestConfigSpecRejection:
    """Malformed configuration specs fail loudly, with usable errors.

    Property-based: arbitrary junk strings must either parse to a
    valid value or raise ValueError/TypeError whose message names the
    offending field — never a silent fallback or an unrelated crash.
    """

    _DTYPE_OK = {"float32", "fp32", "single", "f32",
                 "float64", "fp64", "double", "f64"}

    @given(spec=st.text(min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_parse_dtype_junk_strings(self, spec):
        from repro.precision import parse_dtype

        if spec.strip().lower() in self._DTYPE_OK:
            assert parse_dtype(spec) in ("float32", "float64")
        else:
            with pytest.raises(ValueError, match="dtype"):
                parse_dtype(spec)

    @given(spec=st.one_of(
        st.integers(min_value=-10, max_value=0),
        st.text(alphabet="abcxyz:!-", min_size=1, max_size=8),
    ))
    @settings(max_examples=60, deadline=None)
    def test_parse_workers_junk_specs(self, spec):
        from repro.parallel import parse_workers

        valid_words = {"auto", "serial", "thread"}
        try:
            workers, mode = parse_workers(spec)
        except (ValueError, TypeError) as exc:
            assert "worker" in str(exc).lower()
        else:
            assert workers >= 1
            assert mode in ("serial", "thread")
            text = str(spec).strip().lower()
            assert (
                text in valid_words
                or text == ""
                or text.split(":")[0] in valid_words
            )

    @given(dtype=st.sampled_from(sorted(_DTYPE_OK) + [None]),
           kernel=st.sampled_from(("csr", "buffered", "ell")),
           partition_size=st.integers(min_value=1, max_value=1024))
    @settings(max_examples=20, deadline=None)
    def test_valid_combinations_always_construct(self, dtype, kernel, partition_size):
        from repro.core import OperatorConfig

        config = OperatorConfig(kernel=kernel, partition_size=partition_size, dtype=dtype)
        assert config.dtype in (None, "float32", "float64")
        assert (config.kernel, config.partition_size) == (kernel, partition_size)
