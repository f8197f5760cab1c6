"""Tests for the MemXCT operator: kernels, transforms, footprints."""

import numpy as np
import pytest

from repro import obs
from repro.core import KERNELS, MemXCTOperator, OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.sparse import scan_transpose

from .conftest import with_layouts


@pytest.fixture(scope="module")
def operators():
    """One operator per kernel on the same geometry: the csr one runs
    the orbit plan, the others their paper layouts of ``A``, handed in."""
    g = ParallelBeamGeometry(36, 24)
    ops = {}
    for kernel in KERNELS:
        cfg = OperatorConfig(kernel=kernel, partition_size=16, buffer_bytes=512)
        ops[kernel] = with_layouts(preprocess(g, config=cfg)[0])
    return g, ops


class TestKernelsAgree:
    def test_forward_all_kernels_equal(self, operators, rng):
        g, ops = operators
        x = rng.random(ops["csr"].num_pixels).astype(np.float32)
        ref = ops["csr"].forward(x)
        for kernel in ("buffered", "ell"):
            np.testing.assert_allclose(ops[kernel].forward(x), ref, rtol=1e-4, atol=1e-4)

    def test_adjoint_all_kernels_equal(self, operators, rng):
        g, ops = operators
        y = rng.random(ops["csr"].num_rays).astype(np.float32)
        ref = ops["csr"].adjoint(y)
        for kernel in ("buffered", "ell"):
            np.testing.assert_allclose(ops[kernel].adjoint(y), ref, rtol=1e-4, atol=1e-4)

    def test_adjoint_is_true_transpose(self, operators, rng):
        _, ops = operators
        op = ops["buffered"]
        x = rng.random(op.num_pixels).astype(np.float32)
        y = rng.random(op.num_rays).astype(np.float32)
        lhs = float(np.dot(op.forward(x).astype(np.float64), y))
        rhs = float(np.dot(x.astype(np.float64), op.adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestImageSpace:
    def test_roundtrips(self, operators, rng):
        _, ops = operators
        op = ops["csr"]
        img = rng.random((24, 24))
        np.testing.assert_array_equal(op.ordered_to_image(op.image_to_ordered(img)), img)
        sino = rng.random((36, 24))
        np.testing.assert_array_equal(
            op.ordered_to_sinogram(op.sinogram_to_ordered(sino)), sino
        )

    def test_project_image_is_layout_invariant(self, rng):
        """The same physical projection regardless of ordering scheme."""
        g = ParallelBeamGeometry(20, 16)
        img = rng.random((16, 16))
        sinos = []
        for ordering in ("row-major", "pseudo-hilbert"):
            op, _ = preprocess(g, ordering=ordering)
            sinos.append(op.project_image(img))
        np.testing.assert_allclose(sinos[0], sinos[1], rtol=1e-4, atol=1e-5)

    def test_backproject_sinogram_shape(self, operators, rng):
        _, ops = operators
        out = ops["csr"].backproject_sinogram(rng.random((36, 24)))
        assert out.shape == (24, 24)


class TestRowSubset:
    def test_subset_forward_matches_full(self, operators, rng):
        _, ops = operators
        op = ops["csr"]
        x = rng.random(op.num_pixels).astype(np.float32)
        rows = np.array([3, 17, 100, 101])
        np.testing.assert_allclose(
            op.row_subset_forward(x, rows), op.forward(x)[rows], rtol=1e-5, atol=1e-5
        )

    def test_subset_adjoint_matches_masked_full(self, operators, rng):
        _, ops = operators
        op = ops["csr"]
        rows = np.array([5, 50, 500])
        vals = rng.random(3).astype(np.float32)
        full = np.zeros(op.num_rays, dtype=np.float32)
        full[rows] = vals
        np.testing.assert_allclose(
            op.row_subset_adjoint(vals, rows), op.adjoint(full), rtol=1e-4, atol=1e-5
        )

    def test_subset_operators_memoized_per_row_set(self, rng):
        """Repeated calls with the same row set (ICD's inner loop) must
        reuse the extracted sub-operator instead of re-slicing it."""
        g = ParallelBeamGeometry(20, 16)
        op, _ = preprocess(g, config=OperatorConfig(kernel="csr"))
        rows = np.array([2, 9, 40])
        first = op._subset_operators(rows)
        assert op._subset_operators(list(rows)) is first  # key by content
        assert op._subset_operators(np.array([2, 9, 41])) is not first
        assert len(op._subset_cache) == 2
        # Memoization must not change results.
        x = rng.random(op.num_pixels).astype(np.float32)
        a = op.row_subset_forward(x, rows)
        b = op.row_subset_forward(x, rows)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, op.forward(x)[rows], rtol=1e-5, atol=1e-5)

    def test_subset_cache_bounded(self):
        g = ParallelBeamGeometry(12, 8)
        op, _ = preprocess(g, config=OperatorConfig(kernel="csr"))
        cap = MemXCTOperator._SUBSET_CACHE_CAPACITY
        x = np.ones(op.num_pixels, dtype=np.float32)
        for start in range(cap + 10):
            op.row_subset_forward(x, np.array([start % op.num_rays]))
        assert len(op._subset_cache) <= cap


class TestOneResidentForm:
    @pytest.mark.parametrize("cached", [False, True])
    def test_default_operator_holds_the_csr_pair_and_nothing_beside_it(
        self, rng, tmp_path, cached
    ):
        """After its kernels have run, vector and slab, the only buffers
        of ``Q``'s nnz length or more reachable from a default operator
        on a half-turn scan are the index and value arrays of the stored
        ``Q`` and the ``8 x pixels`` group indices — the compiled loops
        run both directions on ``Q`` as it stands, and neither ``A`` nor
        ``A^T`` is derived.
        The same holds for the operator a cold build into a plan cache
        returns (the entry it assembled in place, mapped).  Serial
        whatever ``REPRO_WORKERS`` says: the parallel engine partitions
        the adjoint by pixel rows, over the derived ``A^T``."""
        import gc

        op, _ = preprocess(
            ParallelBeamGeometry(36, 24),
            config=OperatorConfig(workers="serial"),
            cache=tmp_path / "plans" if cached else None,
        )
        assert op.config.kernel == "csr"
        assert op.buffered_forward is op.ell_forward is None
        for shape in ((), (3,)):
            y = op.forward(rng.random((op.num_pixels,) + shape))
            op.adjoint(y)

        def owner(array):
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array

        seen, stack, big = set(), [op], {}
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, type(gc))):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.size >= op.stored.nnz:
                    big[id(owner(obj))] = owner(obj)
                continue
            if callable(obj):
                continue
            stack.extend(gc.get_referents(obj))
        assert op._transpose is None and op._matrix is None
        held = (op.stored.ind, op.stored.val, op.plan.gather, op.plan._fold)
        assert set(big) == {id(owner(a)) for a in held}


class TestDerivedTranspose:
    """``A^T`` is derived state: nothing a serial csr solve runs builds
    it, and ``close()`` drops it once something has."""

    @pytest.fixture()
    def op(self):
        return preprocess(
            ParallelBeamGeometry(24, 16), config=OperatorConfig(workers="serial")
        )[0]

    @pytest.mark.parametrize("solver", ["cg", "sirt"])
    def test_nothing_derives_it_behind_the_solvers_back(self, op, rng, solver):
        sinogram = rng.random(op.geometry.sinogram_shape)
        with obs.capture() as cap:
            reconstruct(sinogram, op.geometry, solver=solver, iterations=3, operator=op)
            op.memory_footprint()
        assert cap.total(obs.SPMV_CALLS) > 0
        assert op._transpose is None

    def test_it_is_the_scan_transpose_held_until_close(self, op):
        held = op.transpose
        assert op.transpose is held
        want = scan_transpose(op.matrix)
        for name in ("displ", "ind", "val"):
            assert np.array_equal(getattr(held, name), getattr(want, name)), name
        op.close()
        assert op._transpose is None
        assert op.transpose is not held


class TestFootprints:
    def test_table3_conventions(self):
        """A csr plan of ``A`` itself (odd ``M``: no 8-slot group)."""
        op, _ = preprocess(ParallelBeamGeometry(35, 24))
        assert op.plan is op.matrix
        fp = op.memory_footprint()
        assert fp["irregular_forward"] == 24 * 24 * 4
        assert fp["irregular_adjoint"] == 35 * 24 * 4
        assert fp["regular_forward"] == op.matrix.nnz * 8
        # Both csr directions stream A's own row offsets.
        assert fp["displ_bytes"] == 2 * 8 * (35 * 24 + 1)

    def test_an_orbit_plan_streams_q_once_and_gathers_eight_slots(self, operators, rng):
        """``Q``'s bytes once per call, slab or not; the irregular
        bytes are the 8 x pixels and 8 x Q-rows gathers per column; the
        logical FLOPs stay ``2 nnz(A)`` per column — and counting builds
        no ``A``."""
        _, ops = operators
        op = ops["csr"]
        op.close()
        q_rows = op.stored.num_rows
        assert q_rows == 10 * 12  # source views 0 to 9, 12 of 24 channels each
        fp = op.memory_footprint()
        assert fp["regular_forward"] == fp["regular_adjoint"] == op.stored.nnz * 8
        assert fp["irregular_forward"] == fp["irregular_adjoint"] == 8 * (24 * 24 + q_rows) * 4
        assert fp["displ_bytes"] == 2 * 8 * (q_rows + 1)
        with obs.capture() as cap:
            op.forward(rng.random((op.num_pixels, 3)))
            op.adjoint(rng.random(op.num_rays))
        assert cap.total(obs.SPMV_FLOPS) == 2 * op.nnz * 4
        assert cap.total(obs.SPMV_REGULAR_BYTES) == 2 * op.stored.nnz * 8
        assert cap.total(obs.SPMV_IRREGULAR_BYTES) == 4 * fp["irregular_forward"]
        assert op._matrix is None
        assert op.nnz == op.matrix.nnz

    @pytest.mark.parametrize("angles", [23, 24])
    def test_buffered_uses_16bit_indices(self, angles):
        """Only a handed-in buffered layout is charged 2 B per index.
        ``preprocess`` hands in none, so its buffered operator is
        charged as csr is: ``A``'s 4 B on 23x32, the orbit kernel's
        over ``Q`` on 24x32."""
        geometry = ParallelBeamGeometry(angles, 32)
        cfg = OperatorConfig(kernel="buffered", partition_size=16, buffer_bytes=512)
        op, _ = preprocess(geometry, config=cfg)
        assert op.buffered_forward is None
        csr, _ = preprocess(geometry, config=cfg.evolve(kernel="csr"))
        assert op.memory_footprint() == csr.memory_footprint()
        paper = with_layouts(op)
        assert paper.memory_footprint()["regular_forward"] == op.matrix.nnz * 6

    def test_an_orbit_plan_takes_no_layouts(self, operators):
        _, ops = operators
        plan, paper = ops["csr"], ops["buffered"]
        with pytest.raises(ValueError, match="no layouts"):
            MemXCTOperator(
                plan.geometry, plan.tomo_ordering, plan.sino_ordering,
                plan.plan, None, paper.config,
                buffered_forward=paper.buffered_forward,
                buffered_adjoint=paper.buffered_adjoint,
            )


class TestConfig:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            OperatorConfig(kernel="dense")

    @pytest.mark.parametrize("partition_size", [0, -1, -128])
    def test_nonpositive_partition_size_rejected(self, partition_size):
        with pytest.raises(ValueError, match="partition_size must be >= 1"):
            OperatorConfig(partition_size=partition_size)

    @pytest.mark.parametrize("buffer_bytes", [0, -1, -4096])
    def test_nonpositive_buffer_bytes_rejected(self, buffer_bytes):
        with pytest.raises(ValueError, match="buffer_bytes must be > 0"):
            OperatorConfig(buffer_bytes=buffer_bytes)

    def test_error_messages_name_the_bad_value(self):
        with pytest.raises(ValueError, match="got 0"):
            OperatorConfig(partition_size=0)
        with pytest.raises(ValueError, match="got -8"):
            OperatorConfig(buffer_bytes=-8)

    def test_minimal_valid_config_accepted(self):
        cfg = OperatorConfig(kernel="buffered", partition_size=1, buffer_bytes=4)
        assert cfg.partition_size == 1 and cfg.buffer_bytes == 4

    def test_num_properties(self, operators):
        g, ops = operators
        assert ops["csr"].num_rays == g.num_rays
        assert ops["csr"].num_pixels == g.grid.num_pixels
