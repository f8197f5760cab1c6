"""Tolerance contract of the opt-in float32 compute path.

Every bound asserted here is documented in docs/precision.md; this
file IS the contract.  Measured headroom (32x32 demo geometry) is
roughly 10x below each bound:

* forward/adjoint SpMV: fp32 vs fp64 relative error < 1e-6 (all three
  layouts, batched, and 2-worker parallel);
* adjointness holds in fp32: <Ax, y> == <x, A^T y> to 1e-5;
* SIRT/MLEM iterates: < 1e-4 after 15 iterations;
* CG iterates: < 5e-2 after 15 iterations (Krylov directions are
  precision-sensitive), while the achieved residual *reduction* stays
  within 25% of the fp64 run — fp32 converges equally well, along a
  slightly different path.

Also pins the dtype plumbing itself: fp32/fp64 plan fingerprints never
collide, persistence round-trips float64 values, and the upcast fixes
(solver ``_safe_reciprocal``) stay dtype-preserving.
"""

import numpy as np
import pytest

from repro.cache import plan_fingerprint
from repro.core import MemXCTOperator, OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan
from repro.precision import compute_dtype, parse_dtype, solver_dtype
from repro.solvers import cgls, cgls_batch, mlem, mlem_batch, sirt, sirt_batch

from .conftest import with_layouts

N = 32
KERNELS = ("csr", "buffered", "ell")


@pytest.fixture(scope="module")
def geometry():
    return ParallelBeamGeometry(N, N)


@pytest.fixture(scope="module")
def operators(geometry):
    """{(dtype, kernel): operator} for both precisions, all layouts."""
    return {
        (d, k): preprocess(geometry, OperatorConfig(kernel=k, dtype=d))[0]
        for d in ("float32", "float64")
        for k in KERNELS
    }


@pytest.fixture(scope="module")
def problem(operators):
    """A smooth, well-conditioned phantom problem in both precisions."""
    op64 = operators[("float64", "csr")]
    x64 = op64.image_to_ordered(shepp_logan(N))
    y64 = op64.forward(x64)
    return {"x64": x64, "y64": y64}


def _rel(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestParseDtype:
    @pytest.mark.parametrize("spec,expected", [
        (None, None),
        ("float32", "float32"), ("fp32", "float32"), ("single", "float32"),
        ("f32", "float32"), ("FLOAT32", "float32"),
        ("float64", "float64"), ("fp64", "float64"), ("double", "float64"),
        ("f64", "float64"),
        (np.float32, "float32"), (np.dtype(np.float64), "float64"),
    ])
    def test_accepted_spellings(self, spec, expected):
        assert parse_dtype(spec) == expected

    @pytest.mark.parametrize("bad", [
        "float16", "int32", "quad", "", "float", 32, 64.0, object(),
    ])
    def test_rejections_name_accepted_spellings(self, bad):
        with pytest.raises((ValueError, TypeError), match="dtype"):
            parse_dtype(bad)

    def test_compute_and_solver_dtype(self):
        assert compute_dtype(None) == np.float32
        assert compute_dtype("float32") == np.float32
        assert compute_dtype("float64") == np.float64

        class _Op:
            solve_dtype = np.float32

        assert solver_dtype(_Op()) == np.float32
        assert solver_dtype(object()) == np.float64  # legacy operators


class TestOperatorConfigValidation:
    @pytest.mark.parametrize("bad", ["float16", "int8", "halfish", 16])
    def test_bad_dtype_rejected(self, bad):
        with pytest.raises((ValueError, TypeError), match="dtype"):
            OperatorConfig(dtype=bad)

    @pytest.mark.parametrize("field", ["partition_size", "buffer_bytes"])
    @pytest.mark.parametrize("bad", [2.5, 4096.0, True, "128", None])
    def test_non_integer_layout_size_rejected(self, field, bad):
        # Rejected at construction, before any tracing runs (and before
        # a float could fingerprint as its int() twin).
        with pytest.raises(ValueError, match=field):
            OperatorConfig(kernel="ell", **{field: bad})

    def test_numpy_integer_layout_sizes_normalized(self):
        config = OperatorConfig(
            partition_size=np.int64(64), buffer_bytes=np.int32(16 * 1024)
        )
        assert type(config.partition_size) is int and config.partition_size == 64
        assert type(config.buffer_bytes) is int and config.buffer_bytes == 16 * 1024

    def test_tune_field_is_gone(self):
        # The kernel and layout are exactly what the caller names.
        assert list(OperatorConfig.__dataclass_fields__) == [
            "kernel", "partition_size", "buffer_bytes", "workers", "dtype",
        ]
        with pytest.raises(TypeError, match="tune"):
            OperatorConfig(tune="auto")

    def test_dtype_properties(self, operators):
        op32 = operators[("float32", "csr")]
        op64 = operators[("float64", "csr")]
        assert op32.compute_dtype == np.float32 and op32.solve_dtype == np.float32
        assert op64.compute_dtype == np.float64 and op64.solve_dtype == np.float64
        assert op32.matrix.val.dtype == np.float32
        assert op64.matrix.val.dtype == np.float64


class TestFingerprints:
    def test_fp32_fp64_and_default_plans_never_collide(self, geometry, monkeypatch):
        """Regression: dtype is part of the plan-cache key."""
        monkeypatch.delenv("REPRO_DTYPE", raising=False)  # None = the unset default
        keys = {
            d: plan_fingerprint(geometry, OperatorConfig(dtype=d))
            for d in (None, "float32", "float64")
        }
        assert len(set(keys.values())) == 3

    def test_default_fingerprint_unchanged_by_dtype_feature(self, geometry, monkeypatch):
        """dtype=None must hash exactly like pre-dtype caches did."""
        from repro.cache.fingerprint import fingerprint_inputs

        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        doc = fingerprint_inputs(geometry, OperatorConfig())
        assert "dtype" not in doc["config"]


class TestSpmvContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forward_adjoint_error_bound(self, operators, problem, kernel):
        op32 = operators[("float32", kernel)]
        op64 = operators[("float64", kernel)]
        f32 = op32.forward(problem["x64"].astype(np.float32))
        f64 = op64.forward(problem["x64"])
        assert f32.dtype == np.float32
        assert _rel(f32, f64) < 1e-6
        a32 = op32.adjoint(problem["y64"].astype(np.float32))
        a64 = op64.adjoint(problem["y64"])
        assert _rel(a32, a64) < 1e-6

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_spmv_error_bound(self, operators, problem, kernel):
        op32 = operators[("float32", kernel)]
        op64 = operators[("float64", kernel)]
        X = np.stack([problem["x64"], 2.0 * problem["x64"]], axis=1)
        F32 = op32.forward_batch(X.astype(np.float32))
        F64 = op64.forward_batch(X)
        assert F32.dtype == np.float32
        assert _rel(F32, F64) < 1e-6

    def test_parallel_two_workers_bitwise_matches_serial_fp32(
        self, operators, problem
    ):
        op32 = operators[("float32", "buffered")]
        x32 = problem["x64"].astype(np.float32)
        y32 = problem["y64"].astype(np.float32)
        serial_f = op32.forward(x32)
        serial_a = op32.adjoint(y32)
        op32.set_workers("thread:2")
        try:
            assert np.array_equal(op32.forward(x32), serial_f)
            assert np.array_equal(op32.adjoint(y32), serial_a)
        finally:
            op32.set_workers(None)
            op32.close()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fp32_adjointness(self, operators, kernel):
        """<A x, y> == <x, A^T y> holds inside the fp32 path."""
        op32 = operators[("float32", kernel)]
        rng = np.random.default_rng(3)
        x = rng.standard_normal(op32.num_pixels).astype(np.float32)
        y = rng.standard_normal(op32.num_rays).astype(np.float32)
        lhs = float(op32.forward(x).astype(np.float64) @ y)
        rhs = float(x.astype(np.float64) @ op32.adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-5)


class TestSolverContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cg_iterate_and_convergence_bounds(self, operators, problem, kernel):
        op32 = operators[("float32", kernel)]
        op64 = operators[("float64", kernel)]
        r32 = cgls(op32, problem["y64"].astype(np.float32), num_iterations=15)
        r64 = cgls(op64, problem["y64"], num_iterations=15)
        assert r32.x.dtype == np.float32
        assert _rel(r32.x, r64.x) < 5e-2
        # fp32 CG walks a slightly different Krylov path but converges
        # equally well: achieved residual reduction within 25% of fp64.
        red32 = r32.residual_norms[-1] / r32.residual_norms[0]
        red64 = r64.residual_norms[-1] / r64.residual_norms[0]
        assert red32 < 1.25 * red64

    def test_sirt_iterate_bound(self, operators, problem):
        op32 = operators[("float32", "csr")]
        op64 = operators[("float64", "csr")]
        r32 = sirt(op32, problem["y64"].astype(np.float32), num_iterations=15)
        r64 = sirt(op64, problem["y64"], num_iterations=15)
        assert r32.x.dtype == np.float32
        assert _rel(r32.x, r64.x) < 1e-4

    def test_mlem_iterate_bound(self, operators, problem):
        op32 = operators[("float32", "csr")]
        op64 = operators[("float64", "csr")]
        y = np.maximum(problem["y64"], 0.0)
        r32 = mlem(op32, y.astype(np.float32), num_iterations=15)
        r64 = mlem(op64, y, num_iterations=15)
        assert r32.x.dtype == np.float32
        assert _rel(r32.x, r64.x) < 1e-4

    @pytest.mark.parametrize("single,batched", [
        (cgls, cgls_batch), (sirt, sirt_batch),
    ])
    def test_batched_fp32_bit_exact_vs_single_slice(
        self, operators, problem, single, batched
    ):
        """The multi-RHS solvers reproduce single-slice fp32 exactly."""
        op32 = operators[("float32", "csr")]
        y32 = problem["y64"].astype(np.float32)
        Y = np.stack([y32, (0.5 * y32).astype(np.float32)], axis=1)
        res_b = batched(op32, Y, num_iterations=8)
        assert res_b.X.dtype == np.float32
        for j in range(2):
            res_s = single(op32, np.ascontiguousarray(Y[:, j]), num_iterations=8)
            assert np.array_equal(res_b.X[:, j], res_s.x)

    def test_mlem_batched_fp32_bit_exact(self, operators, problem):
        op32 = operators[("float32", "csr")]
        y32 = np.maximum(problem["y64"], 0.0).astype(np.float32)
        Y = np.stack([y32, y32 * np.float32(2.0)], axis=1)
        res_b = mlem_batch(op32, Y, num_iterations=8)
        for j in range(2):
            res_s = mlem(op32, np.ascontiguousarray(Y[:, j]), num_iterations=8)
            assert np.array_equal(res_b.X[:, j], res_s.x)

    def test_legacy_default_path_still_solves_in_float64(self, geometry, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        op, _ = preprocess(geometry, OperatorConfig())
        y = np.ones(op.num_rays)
        res = cgls(op, y, num_iterations=3)
        assert res.x.dtype == np.float64
        assert op.matrix.val.dtype == np.float32  # mixed precision intact


class TestUpcastPinning:
    """Each fix for a silent float64 upcast, pinned."""

    def test_sirt_safe_reciprocal_preserves_float32(self):
        from repro.solvers.driver import _safe_reciprocal

        out = _safe_reciprocal(np.array([2.0, 0.0, 4.0], dtype=np.float32))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [0.5, 0.0, 0.25])

    def test_batched_safe_reciprocal_preserves_float32(self):
        from repro.solvers.driver import _safe_reciprocal

        out = _safe_reciprocal(np.array([[2.0], [0.0]], dtype=np.float32))
        assert out.dtype == np.float32

    def test_dark_flat_integer_counts_promote_to_float64(self):
        """Raw uint16 detector counts below the dark level must clip,
        not wrap around, on their way to a float64 transmission."""
        from repro.pipeline import DarkFlatNormalize, StageContext

        counts = np.array([[[50, 3000]]], dtype=np.uint16)
        darks = np.full((2, 2), 100, dtype=np.uint16)
        flats = np.full((2, 2), 4100, dtype=np.uint16)
        out = DarkFlatNormalize(darks, flats)(counts, StageContext())
        assert out.dtype == np.float64
        np.testing.assert_allclose(out[0, 0], [1e-6, 0.725])

    def test_parallel_rebuild_preserves_float64_values(self):
        """The worker-side rebuild is ``from_arrays(to_arrays())``; the
        full field-by-field round trip is in
        ``test_layout_conformance.py``."""
        from repro.sparse import CSRMatrix

        A = CSRMatrix(
            displ=np.array([0, 1, 2]), ind=np.array([0, 1]),
            val=np.array([1.5, 2.5]), num_cols=2, value_dtype="float64",
        )
        rebuilt = CSRMatrix.from_arrays(A.to_arrays(), A.num_rows, A.num_cols)
        assert rebuilt.val.dtype == np.float64

    def test_pipeline_rhs_matches_solver_dtype(self, geometry):
        from repro.pipeline import reconstruct_stack

        op32, _ = preprocess(geometry, OperatorConfig(dtype="float32"))
        stack = np.random.default_rng(0).random((2, N, N))
        res = reconstruct_stack(stack, geometry, operator=op32, iterations=3)
        assert res.volume.dtype == np.float64  # assembled volume stays f64


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("drop_a_view", [False, True])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fp64_operator_survives_save_load(self, tmp_path, geometry, kernel, drop_a_view):
        """The plan round-trips in fp64: ``A`` with a view dropped (odd
        ``M``, no 8-slot group), ``Q`` without.  A buffered or ELL pair
        built from the loaded plan is fp64 too."""
        from repro.io import load_operator, save_operator

        if drop_a_view:
            geometry = ParallelBeamGeometry(geometry.num_angles - 1, geometry.num_channels)
        op, _ = preprocess(geometry, OperatorConfig(kernel=kernel, dtype="float64"))
        path = save_operator(tmp_path / "op64.npz", op)
        loaded = load_operator(path)
        assert isinstance(loaded, MemXCTOperator)
        assert loaded.config.dtype == "float64"
        assert loaded.matrix.val.dtype == np.float64
        assert loaded.transpose.val.dtype == np.float64
        assert loaded._orbit != drop_a_view
        paper = with_layouts(loaded, kernel)
        if kernel == "buffered":
            assert paper.buffered_forward.val.dtype == np.float64
        if kernel == "ell":
            assert paper.ell_forward.val_slabs[0].dtype == np.float64
        x = np.random.default_rng(0).random(op.num_pixels)
        assert np.array_equal(loaded.forward(x), op.forward(x))
        if kernel != "csr":
            y = paper.forward(x)
            assert y.dtype == np.float64
            np.testing.assert_allclose(y, loaded.forward(x), rtol=1e-10, atol=1e-12)

    def test_legacy_file_without_dtype_key_loads_as_default(
        self, tmp_path, geometry, monkeypatch
    ):
        from repro.io import load_operator, save_operator

        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        op, _ = preprocess(geometry, OperatorConfig())
        path = save_operator(tmp_path / "op.npz", op)
        loaded = load_operator(path)
        assert loaded.config.dtype is None
        assert loaded.matrix.val.dtype == np.float32
