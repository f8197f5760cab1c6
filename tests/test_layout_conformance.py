"""What every kernel layout promises, written once.

Each layout class of ``repro.sparse`` (CSR, multi-stage buffered,
partition-padded ELL) offers one kernel ``spmv`` over a vector or a
slab.  CSR alone is also cut (``partition_slice``) and turned into
arrays and back (``to_arrays`` / ``from_arrays``): the operator
archive and pickling go through that pair, and the buffered and ELL
layouts are serial kernels to measure against it.  This file states that contract over the product layout x
precision x input rank.

The operators are built with the *ambient* worker spec, so running the
file under ``REPRO_WORKERS=2`` (the plan's CSR pair partitioned over
two threads) checks the parallel path against the serial kernel, bit
for bit.
"""

import copy
import dataclasses
import pickle
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro import obs
from repro.cache import PlanCache
from repro.cachesim import ell_lockstep_spmv, listing3_spmv
from repro.core import KERNELS, OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.io import load_operator, save_operator
from repro.parallel import partition_ranges
from repro.sparse import build_buffered

from .conftest import with_layouts

PARTITION_SIZE = 32
DTYPES = {"mixed": None, "float32": "float32", "float64": "float64"}
SHAPES = {"vector": (), "slab1": (1,), "slab4": (4,)}
SPMV_COUNTERS = (
    obs.SPMV_CALLS,
    obs.SPMV_FLOPS,
    obs.SPMV_REGULAR_BYTES,
    obs.SPMV_IRREGULAR_BYTES,
    obs.BUFFER_STAGES,
    obs.DTYPE_FP32_SPMV,
    obs.DTYPE_FP64_SPMV,
)


@pytest.fixture(scope="module")
def operators():
    # Odd M: the plan holds A itself (TestOrbitLayout below states the
    # contract for the plan of an even-M half turn).  The buffered and
    # ELL pairs are handed in, built from it.
    geometry = ParallelBeamGeometry(35, 24)
    return {
        (kernel, dtype): with_layouts(
            preprocess(
                geometry,
                config=OperatorConfig(
                    kernel=kernel,
                    partition_size=PARTITION_SIZE,
                    buffer_bytes=1024,  # several stages per partition
                    dtype=DTYPES[dtype],
                ),
            )[0]
        )
        for kernel in KERNELS
        for dtype in DTYPES
    }


def _layouts(op):
    return {
        "csr": (op.plan, op.transpose),
        "buffered": (op.buffered_forward, op.buffered_adjoint),
        "ell": (op.ell_forward, op.ell_adjoint),
    }[op.config.kernel]


def _forward_layout(op):
    return _layouts(op)[0]


def _input(op, shape):
    rng = np.random.default_rng(5)
    return rng.standard_normal((op.num_pixels,) + shape).astype(op.compute_dtype)


def _assert_same_field(a, b, name):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    elif isinstance(a, list):
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            _assert_same_field(x, y, name)
    else:
        assert a == b, name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelConformance:
    def test_spmv(self, operators, kernel, dtype, shape):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, SHAPES[shape])
        y = layout.spmv(x)

        # Right answer, right shape, right dtype.
        dense = op.matrix.to_scipy().toarray().astype(np.float64)
        ref = dense @ x.astype(np.float64)
        assert y.shape == ref.shape
        assert y.dtype == np.result_type(x.dtype, np.float32)
        tol = 1e-10 if x.dtype == np.float64 else 1e-4
        assert np.abs(y - ref).max() <= tol * np.abs(ref).max()

        # A vector is the one-column slab: column j of a slab result is
        # the vector call on column j, bit for bit.
        for j in range(x.shape[1] if x.ndim == 2 else 0):
            assert np.array_equal(y[:, j], layout.spmv(x[:, j]))

        # The literal Listing-3 loop nest computes the same sums in
        # another association: the compiled loop adds a slot's products
        # one after the other, the reference's ``reduceat`` pairwise.
        # Two orderings of an n-term sum differ by at most
        # 2 n eps sum|terms|, n being the longest row.
        if kernel == "buffered":
            columns = x[:, None] if x.ndim == 1 else x
            literal = np.stack(
                [listing3_spmv(layout, columns[:, j]) for j in range(columns.shape[1])],
                axis=1,
            )
            bound = (
                2
                * op.matrix.row_nnz().max()
                * np.finfo(y.dtype).eps
                * (np.abs(dense) @ np.abs(x.astype(np.float64)))
            )
            assert (np.abs(literal.reshape(y.shape) - y) <= bound).all()

        # ELL reads its column-major slabs in warp order: the literal
        # slot-by-slot loop and the CSR kernel add the same products in
        # the same order (padding adds 0 * x[0]), bit for bit.
        if kernel == "ell":
            assert np.array_equal(ell_lockstep_spmv(layout, x), y)
            assert np.array_equal(op.matrix.spmv(x), y)

        # CSR's partition-range slices tile the output, bit for bit.
        if kernel == "csr":
            num_partitions = -(-layout.num_rows // PARTITION_SIZE)
            for workers in (2, 3, num_partitions):
                pieces = [
                    layout.partition_slice(p0, p1, PARTITION_SIZE).spmv(x)
                    for p0, p1 in partition_ranges(num_partitions, workers)
                ]
                assert np.array_equal(np.concatenate(pieces), y)

        # The operator runs exactly this kernel, whichever worker
        # backend is ambient, under both protocol names.
        assert np.array_equal(op.forward(x), y)
        assert np.array_equal(op.forward_batch(x), y)

    def test_bad_input_rejected(self, operators, kernel, dtype, shape):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        short = np.zeros((op.num_pixels - 1,) + SHAPES[shape], dtype=op.compute_dtype)
        with pytest.raises(ValueError, match="rows"):
            layout.spmv(short)
        with pytest.raises(ValueError, match="slab"):
            layout.spmv(np.zeros((op.num_pixels, 2, 2), dtype=op.compute_dtype))


@pytest.mark.parametrize("dtype", DTYPES)
class TestArrayForm:
    @pytest.mark.parametrize("kernel", ["csr"])
    def test_round_trip_is_the_layout(self, operators, kernel, dtype):
        """``from_arrays(to_arrays())`` is the matrix, field by field —
        value dtype included — and is made of views, not copies."""
        op = operators[(kernel, dtype)]
        for layout in _layouts(op):
            arrays = layout.to_arrays()
            rebuilt = type(layout).from_arrays(arrays, layout.num_rows, layout.num_cols)
            for field in dataclasses.fields(layout):
                _assert_same_field(
                    getattr(layout, field.name), getattr(rebuilt, field.name), field.name
                )
            assert rebuilt.val.dtype == op.matrix.val.dtype
            assert np.shares_memory(rebuilt.val, arrays["val"])

    @pytest.mark.parametrize("kernel", ["csr"])
    def test_pickle_is_the_array_form(self, operators, kernel, dtype):
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, ())
        clone = pickle.loads(pickle.dumps(layout))
        assert np.array_equal(clone.spmv(x), layout.spmv(x))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_accounting_is_rank_and_backend_blind(self, operators, kernel, dtype):
        """A vector call, a one-column slab and (under ``REPRO_WORKERS``)
        a parallel run account identically; ``S`` columns count ``S`` times
        except for the regular stream, charged once."""
        op = operators[(kernel, dtype)]
        x = _input(op, ())

        def totals(call, arg):
            with obs.capture() as cap:
                call(arg)
            (span,) = cap.find_spans("spmv.forward")
            return {c: cap.total(c) for c in SPMV_COUNTERS}, span.attrs

        vector, vector_attrs = totals(op.forward, x)
        one, one_attrs = totals(op.forward_batch, x[:, None])
        ambient = op.config.workers
        op.set_workers("serial")
        try:
            serial, _ = totals(op.forward, x)
        finally:
            op.set_workers(ambient)
        assert vector == one == serial
        assert vector_attrs == {"kernel": kernel}
        assert one_attrs == {"kernel": kernel, "batch": 1}
        four, _ = totals(op.forward, np.stack([x] * 4, axis=1))
        for counter in SPMV_COUNTERS:
            once = counter in (obs.SPMV_REGULAR_BYTES, obs.BUFFER_STAGES)
            assert four[counter] == vector[counter] * (1 if once else 4)


COMPILED = ("csr", "buffered")


def _fresh(layout):
    """A new layout over the same arrays, nothing derived."""
    return dataclasses.replace(layout)


def _derived(layout) -> bool:
    return "_view" in vars(layout)


@pytest.mark.parametrize("dtype", DTYPES)
class TestCompiledView:
    """CSR and buffered run scipy's compiled CSR loop over a view of
    their own arrays.  The view is derived at the first kernel call,
    and is never part of what a CSR matrix persists, pickles or ships."""

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_vector_is_the_one_column_slab(self, operators, kernel, dtype):
        """scipy runs two loops (``csr_matvec``, ``csr_matvecs``); a slab
        column is the vector call bit for bit, whatever the slab's
        width or memory order."""
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, (8,))
        y = layout.spmv(x)
        assert np.array_equal(layout.spmv(np.asfortranarray(x)), y)
        for j in range(x.shape[1]):
            assert np.array_equal(layout.spmv(x[:, j]), y[:, j])
            assert np.array_equal(layout.spmv(x[:, j : j + 1]), y[:, j : j + 1])

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_first_call_is_every_call(self, operators, kernel, dtype):
        op = operators[(kernel, dtype)]
        for layout, n in zip(_layouts(op), (op.num_pixels, op.num_rays)):
            x = np.random.default_rng(11).standard_normal((n, 2)).astype(op.compute_dtype)
            fresh = _fresh(layout)
            assert not _derived(fresh)
            first = fresh.spmv(x)
            assert _derived(fresh)
            assert np.array_equal(fresh.spmv(x), first)
            assert np.array_equal(layout.spmv(x), first)

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_fp64_input_on_fp32_values(self, operators, kernel, dtype):
        """A float64 vector on float32 values computes, and returns, in
        float64 — as the product ``val * x[ind]`` always promoted."""
        op = operators[(kernel, dtype)]
        layout = _forward_layout(op)
        x = _input(op, ()).astype(np.float64)
        y = layout.spmv(x)
        assert y.dtype == np.float64
        dense = op.matrix.to_scipy().toarray().astype(np.float64)
        assert np.abs(y - dense @ x).max() <= 1e-10 * np.abs(dense @ x).max()

    @pytest.mark.parametrize("kernel", ["csr"])
    def test_view_never_leaves_the_layout(self, operators, kernel, dtype):
        """Pickles, copies, the array form and partition slices are the
        same size and content after a kernel call as before it."""
        op = operators[(kernel, dtype)]
        cold = _fresh(_forward_layout(op))
        before = len(pickle.dumps(cold)), sorted(cold.to_arrays())
        cold.spmv(_input(op, ()))
        assert _derived(cold)
        assert (len(pickle.dumps(cold)), sorted(cold.to_arrays())) == before
        for clone in (
            pickle.loads(pickle.dumps(cold)),
            copy.deepcopy(cold),
            copy.copy(cold),
            type(cold).from_arrays(cold.to_arrays(), cold.num_rows, cold.num_cols),
            cold.partition_slice(0, 1, PARTITION_SIZE),
        ):
            assert not _derived(clone)
        for field in dataclasses.fields(cold):
            _assert_same_field(
                getattr(cold, field.name),
                getattr(copy.deepcopy(cold), field.name),
                field.name,
            )

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_derivation_holds_no_wide_temporary(self, operators, kernel, dtype):
        """The first call allocates the result and, on the buffered
        layout, one 4 B/nnz column array — never an 8 B/nnz index."""
        op = operators[(kernel, dtype)]
        fresh = _fresh(_forward_layout(op))
        x = _input(op, ())
        tracemalloc.start()
        try:
            fresh.spmv(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slots = fresh.displ.shape[0]
        assert peak < 6 * fresh.nnz + 64 * slots + (1 << 16)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", KERNELS)
class TestWorkers:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_serial_is_thread_2(self, operators, kernel, dtype, shape):
        """``thread:2`` partitions the plan's CSR pair; a handed-in
        buffered or ELL pair builds no engine and runs serially.  Either
        way the bits are the serial ones, on a vector and on a slab, in
        both directions."""
        op = operators[(kernel, dtype)]
        x = _input(op, SHAPES[shape])
        y = (
            np.random.default_rng(3)
            .standard_normal((op.num_rays,) + SHAPES[shape])
            .astype(op.compute_dtype)
        )
        ambient = op.config.workers
        op.set_workers("serial")
        ref = op.forward(x), op.adjoint(y)
        op.set_workers("thread:2")
        try:
            assert (op._active_engine() is None) == (kernel != "csr")
            for _ in range(2):  # the engine keeps its slices between calls
                assert np.array_equal(op.forward(x), ref[0])
                assert np.array_equal(op.adjoint(y), ref[1])
        finally:
            op.set_workers(ambient)


@pytest.mark.parametrize("dtype", DTYPES)
class TestStageFold:
    def test_fold_and_single_stage_agree_with_csr(self, operators, dtype):
        """Several stages per partition go through the slot-to-row fold;
        one stage per partition skips it and is the CSR kernel bit for
        bit, vector and slab, both directions (same rows, same order) —
        which is why the default kernel could move from buffered to csr
        without moving a bit wherever the buffer held a partition's
        whole footprint."""
        op = operators[("buffered", dtype)]
        staged = op.buffered_forward
        assert staged.num_stages > staged.partitions.num_partitions
        tol = 1e-10 if op.compute_dtype == np.float64 else 1e-4
        for source in (op.matrix, op.transpose):
            single = build_buffered(source, PARTITION_SIZE, 256 * 1024)
            assert single.num_stages == single.partitions.num_partitions
            rng = np.random.default_rng(5)
            for shape in SHAPES.values():
                x = rng.standard_normal((source.num_cols,) + shape).astype(
                    op.compute_dtype
                )
                ref = source.spmv(x)
                assert np.array_equal(single.spmv(x), ref)
                if source is op.matrix:
                    gap = np.abs(staged.spmv(x) - ref).max()
                    assert gap <= tol * np.abs(ref).max()
            assert single._view[1] is None
        assert staged._view[1] is not None


@pytest.mark.parametrize("kernel", COMPILED)
class TestNoDerivationAtSetup:
    def test_preprocess_cache_and_archive_derive_nothing(
        self, tmp_path, kernel, row_loops, native_calls
    ):
        """A cold build, its plan store, a warm load and ``save_operator``
        leave every layout underived, and an archive written after
        kernel calls is the archive written before them, member for
        member (order, size, CRC).  The calls are the orbit vector pair:
        one compiled 8-column gather and scatter, which derive nothing,
        or on scipy's fallback a view derived at the first call."""
        geometry = ParallelBeamGeometry(24, 16)
        # Serial whatever REPRO_WORKERS says: a parallel run derives
        # the views of the engine's slices, not of these layouts.
        config = OperatorConfig(
            kernel=kernel, partition_size=PARTITION_SIZE, workers="serial"
        )
        cache = PlanCache(tmp_path / "plans")

        def layouts(op):
            found = [op.stored, op.buffered_forward, op.buffered_adjoint]
            return [layout for layout in found if layout is not None]

        def members(path):
            with zipfile.ZipFile(path) as archive:
                return [
                    (info.filename, info.file_size, info.CRC)
                    for info in archive.infolist()
                ]

        cold, cold_report = preprocess(geometry, config=config, cache=cache)
        warm, warm_report = preprocess(geometry, config=config, cache=cache)
        assert not cold_report.cache_hit and warm_report.cache_hit
        save_operator(tmp_path / "before.npz", cold, compress=False)
        for op in (cold, warm, load_operator(tmp_path / "before.npz")):
            assert not any(_derived(layout) for layout in layouts(op))

        x = np.ones(cold.num_pixels, dtype=cold.compute_dtype)
        cold.adjoint(cold.forward(x))
        native = row_loops == "native"
        assert native_calls == ([("gather", 8), ("scatter8", 8)] if native else [])
        assert any(_derived(layout) for layout in layouts(cold)) != native
        save_operator(tmp_path / "after.npz", cold, compress=False)
        assert members(tmp_path / "after.npz") == members(tmp_path / "before.npz")
        stored = members(cache.plan_path(cold_report.cache_key))
        cache.store(cold_report.cache_key, cold)
        assert members(cache.plan_path(cold_report.cache_key)) == stored
        # Nothing above, nor a CG solve, expands the plan's Q into A,
        # whatever the kernel.
        reconstruct(np.ones(geometry.sinogram_shape), geometry, iterations=3, operator=warm)
        assert cold.plan is not cold.stored
        assert all(op._matrix is None for op in (cold, warm))


@pytest.mark.usefixtures("row_loops")
@pytest.mark.parametrize("dtype", DTYPES)
class TestOrbitLayout:
    """The csr plan of a half-turn scan with even ``M`` is an
    :class:`~repro.sparse.OrbitMatrix` (``Q`` and its 8-slot group),
    held to the same contract: one kernel over a vector or a slab whose
    columns are the vector calls, partition slices that tile the output,
    a pickle that runs the same kernel, accounting blind to input rank
    and backend, and a ``thread:2`` run equal to serial."""

    @pytest.fixture(scope="class")
    def orbits(self):
        geometry = ParallelBeamGeometry(36, 24)
        return {
            dtype: preprocess(
                geometry, config=OperatorConfig(partition_size=PARTITION_SIZE, dtype=name)
            )[0]
            for dtype, name in DTYPES.items()
        }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_spmv_slices_and_pickle(self, orbits, dtype, shape):
        op = orbits[dtype]
        layout = op.plan
        assert layout.slots == 8 and layout.nnz == op.matrix.nnz
        x = _input(op, SHAPES[shape])
        y = layout.spmv(x)
        ref = op.matrix.to_scipy().toarray().astype(np.float64) @ x.astype(np.float64)
        tol = 1e-10 if x.dtype == np.float64 else 1e-4
        assert y.dtype == np.result_type(x.dtype, np.float32)
        assert np.abs(y - ref).max() <= tol * np.abs(ref).max()
        for j in range(x.shape[1] if x.ndim == 2 else 0):
            assert np.array_equal(y[:, j], layout.spmv(x[:, j]))
        num_partitions = -(-layout.num_rows // PARTITION_SIZE)
        for workers in (2, 3, num_partitions):
            pieces = [
                layout.partition_slice(p0, p1, PARTITION_SIZE).spmv(x)
                for p0, p1 in partition_ranges(num_partitions, workers)
            ]
            assert np.array_equal(np.concatenate(pieces), y)
        clone = pickle.loads(pickle.dumps(layout))
        assert clone.stored.val.dtype == op.stored.val.dtype
        assert np.array_equal(clone.spmv(x), y)
        assert np.array_equal(op.forward(x), y)

    def test_accounting_is_rank_and_backend_blind(self, orbits, dtype):
        op = orbits[dtype]
        x = _input(op, ())

        def totals(call, arg):
            with obs.capture() as cap:
                call(arg)
            return {c: cap.total(c) for c in SPMV_COUNTERS}

        vector, one = totals(op.forward, x), totals(op.forward_batch, x[:, None])
        four = totals(op.forward, np.stack([x] * 4, axis=1))
        assert vector == one
        for counter in SPMV_COUNTERS:
            once = counter in (obs.SPMV_REGULAR_BYTES, obs.BUFFER_STAGES)
            assert four[counter] == vector[counter] * (1 if once else 4)

    def test_serial_is_thread_2(self, orbits, dtype):
        op = orbits[dtype]
        x = _input(op, (3,))
        y = np.random.default_rng(3).standard_normal(op.num_rays).astype(op.compute_dtype)
        ambient = op.config.workers
        op.set_workers("serial")
        ref = op.forward(x), op.adjoint(y)
        op.set_workers("thread:2")
        try:
            for _ in range(2):
                assert np.array_equal(op.forward(x), ref[0])
                assert np.array_equal(op.adjoint(y), ref[1])
        finally:
            op.set_workers(ambient)
