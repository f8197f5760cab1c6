"""Tests for the thread-parallel execution backend.

The backend's one promise is that parallelism is an execution knob,
never a numerics knob: every worker owns a contiguous partition range
and writes its own output rows, so serial and parallel results must be
**bit-identical** on every kernel, for every spec of two or more
workers (which partitions SpMV on the shared thread pool, and only the
plan's CSR pair; a handed-in buffered or ELL pair runs the serial
kernel), for single-vector and batched kernels, through every public
entry point (operator, reconstruct, preprocess, pipeline).  These tests
enforce exactly that, plus the satellite fixes: worker-spec parsing,
the compiled-view persistence exclusion, buffer-capacity validation,
and ``permute`` input validation.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache import PlanCache
from repro.core import MemXCTOperator, OperatorConfig, preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.io import load_operator, save_operator
from repro.parallel import (
    ParallelSpmvEngine,
    SerialBackend,
    ThreadBackend,
    make_backend,
    parse_workers,
    partition_ranges,
)
from repro.pipeline import reconstruct_stack
from repro.resilience import FaultConfig
from repro.sparse import CSRMatrix, scan_transpose, validate_buffer_bytes
from repro.trace import build_projection_matrix

from .conftest import with_layouts

KERNELS = ("csr", "buffered", "ell")
WORKER_SPECS = (2, 4, "thread:3")


@pytest.fixture(scope="module")
def geometry() -> ParallelBeamGeometry:
    return ParallelBeamGeometry(40, 32)


@pytest.fixture(scope="module")
def operators(geometry) -> dict[str, MemXCTOperator]:
    """One serial operator per kernel, partition size small enough to
    give every worker several partitions."""
    return {
        kernel: preprocess(
            geometry,
            config=OperatorConfig(
                kernel=kernel, partition_size=16, buffer_bytes=2048
            ),
        )[0]
        for kernel in KERNELS
    }


@pytest.fixture(scope="module")
def paper_operators(operators) -> dict[str, MemXCTOperator]:
    """The same operators with their buffered / ELL pairs handed in
    (the csr one runs the orbit plan as it is)."""
    return {kernel: with_layouts(op) for kernel, op in operators.items()}


@pytest.fixture(scope="module")
def sinogram(geometry) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.random(geometry.sinogram_shape).astype(np.float32)


class TestParseWorkers:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (1, (1, "serial")),
            (4, (4, "thread")),
            ("serial", (1, "serial")),
            ("3", (3, "thread")),
            ("thread:2", (2, "thread")),
            ("thread:1", (1, "serial")),
            ("", (1, "serial")),
        ],
    )
    def test_specs(self, spec, expected):
        assert parse_workers(spec) == expected

    def test_none_defers_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert parse_workers(None) == (1, "serial")
        monkeypatch.setenv("REPRO_WORKERS", "thread:3")
        assert parse_workers(None) == (3, "thread")

    def test_auto_uses_cpu_count(self):
        workers, mode = parse_workers("auto")
        assert workers == max(os.cpu_count() or 1, 1)
        assert mode in ("serial", "thread")

    @pytest.mark.parametrize(
        "bad", [0, -1, "0", "frob", "thread:x", "frob:2", 1.5, "process", "process:2"]
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises((ValueError, TypeError)):
            parse_workers(bad)

    def test_config_validates_spec(self):
        with pytest.raises(ValueError):
            OperatorConfig(workers="frob")
        assert OperatorConfig(workers=4).workers == 4


class TestPartitionRanges:
    def test_balanced_contiguous(self):
        assert partition_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert partition_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_more_workers_than_partitions(self):
        assert partition_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert partition_ranges(0, 4) == []

    def test_cover_without_overlap(self):
        for n, w in [(13, 4), (128, 7), (5, 5)]:
            ranges = partition_ranges(n, w)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a1 == b0 for (_, a1), (b0, _) in zip(ranges, ranges[1:]))

    def test_engine_ranges_balance_nonzeros_on_a_skewed_matrix(self):
        """A quarter of the rows hold three quarters of the nonzeros: cut
        by count the two ranges would hold 5.5x apart, cut by each
        direction's nonzeros within 1.1x, and the bits stay serial."""
        rng = np.random.default_rng(0)
        counts = np.where(np.arange(800) < 200, 40, 4)
        displ = np.concatenate(([0], np.cumsum(counts)))
        ind = np.concatenate([np.sort(rng.choice(512, c, replace=False)) for c in counts])
        matrix = CSRMatrix(displ, ind, rng.random(displ[-1]), 512)
        transpose = scan_transpose(matrix)
        engine = ParallelSpmvEngine(
            workers=2, partition_size=4, forward_layout=matrix, adjoint_layout=transpose
        )
        try:
            for direction, layout in (("forward", matrix), ("adjoint", transpose)):
                nnz = [sub.nnz for _, _, sub in engine._ranges[direction]]
                assert len(nnz) == 2 and max(nnz) <= 1.1 * min(nnz), (direction, nnz)
                x = rng.random(layout.num_cols).astype(np.float32)
                assert np.array_equal(engine.apply(direction, x), layout.spmv(x))
        finally:
            engine.close()


class TestBackends:
    def test_make_backend_modes(self):
        assert isinstance(make_backend(1, "serial"), SerialBackend)
        assert isinstance(make_backend(4, "thread"), ThreadBackend)

    def test_thread_pool_is_shared(self):
        a, b = ThreadBackend(3), ThreadBackend(3)
        assert a.pool() is b.pool()

    def test_map_preserves_order(self):
        backend = make_backend(3, "thread")
        assert backend.map(lambda v: v * v, list(range(20))) == [
            v * v for v in range(20)
        ]


class TestEngineBitIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("spec", WORKER_SPECS)
    def test_forward_adjoint_batch(self, paper_operators, kernel, spec):
        serial = paper_operators[kernel]
        rng = np.random.default_rng(7)
        x = rng.random(serial.num_pixels).astype(np.float32)
        y = rng.random(serial.num_rays).astype(np.float32)
        X = rng.random((serial.num_pixels, 3)).astype(np.float32)
        Y = rng.random((serial.num_rays, 3)).astype(np.float32)
        ref = (
            serial.forward(x),
            serial.adjoint(y),
            serial.forward_batch(X),
            serial.adjoint_batch(Y),
        )
        serial.set_workers(spec)
        try:
            assert (serial.forward(x) == ref[0]).all()
            assert (serial.adjoint(y) == ref[1]).all()
            assert (serial.forward_batch(X) == ref[2]).all()
            assert (serial.adjoint_batch(Y) == ref[3]).all()
        finally:
            serial.set_workers(None)

    def test_engine_close_is_idempotent(self, operators):
        fwd, adj = operators["csr"].matrix, operators["csr"].transpose
        engine = ParallelSpmvEngine(
            workers=2,
            partition_size=16,
            forward_layout=fwd,
            adjoint_layout=adj,
        )
        x = np.ones(fwd.num_cols, dtype=np.float32)
        assert (engine.apply("forward", x) == fwd.spmv(x)).all()
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.apply("forward", x)

    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_only_csr_is_shipped(self, paper_operators, kernel):
        """The engine takes CSR alone: a buffered or ELL layout in either
        direction is refused before anything is sliced."""
        op = paper_operators[kernel]
        fwd, adj = op._layouts["forward"], op._layouts["adjoint"]
        with pytest.raises(TypeError, match="CSRMatrix"):
            ParallelSpmvEngine(
                workers=2, partition_size=16, forward_layout=fwd, adjoint_layout=adj
            )
        with pytest.raises(TypeError, match="CSRMatrix"):
            ParallelSpmvEngine(
                workers=2, partition_size=16, forward_layout=op.matrix,
                adjoint_layout=adj,
            )

    @pytest.mark.parametrize("kernel", ["buffered", "ell"])
    def test_handed_in_layouts_run_serially(self, paper_operators, operators, kernel):
        """A thread spec partitions the plan's CSR pair; an operator
        handed a buffered or ELL pair builds no engine."""
        for op, engine in ((operators[kernel], True), (paper_operators[kernel], False)):
            op.set_workers("thread:2")
            try:
                assert (op._active_engine() is not None) == engine
            finally:
                op.set_workers(None)

    def test_set_workers_serial_pins_serial(self, operators):
        op = operators["buffered"]
        op.set_workers("thread:2")
        try:
            assert op._active_engine() is not None
            op.set_workers("serial")
            assert op._active_engine() is None
        finally:
            op.set_workers(None)


@pytest.mark.usefixtures("row_loops")
class TestThreadEngineProperty:
    @given(
        seed=st.integers(0, 10**6),
        rows=st.integers(1, 60),
        cols=st.integers(1, 40),
        width=st.sampled_from([None, 8, 16, 64]),
        matrix_dtype=st.sampled_from(["float32", "float64"]),
        vector_dtype=st.sampled_from(["float32", "float64"]),
        workers=st.integers(2, 5),
        partition_size=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_thread_engine_is_serial(
        self, seed, rows, cols, width, matrix_dtype, vector_dtype, workers, partition_size
    ):
        """Both directions equal the serial kernels bit for bit and in
        dtype, over empty rows and columns, vectors and slabs, and
        fewer or more partition ranges than workers."""
        rng = np.random.default_rng(seed)
        dense = rng.random((rows, cols))
        dense[rng.random((rows, cols)) > 0.3] = 0
        dense[rng.random(rows) < 0.3] = 0
        matrix = CSRMatrix.from_scipy(sp.csr_matrix(dense), matrix_dtype)
        tail = () if width is None else (width,)
        x = rng.standard_normal((cols,) + tail).astype(vector_dtype)
        y = rng.standard_normal((rows,) + tail).astype(vector_dtype)
        engine = ParallelSpmvEngine(
            workers=workers,
            partition_size=partition_size,
            forward_layout=matrix,
            adjoint_layout=scan_transpose(matrix),
        )
        for out, ref in (
            (engine.apply("forward", x), matrix.spmv(x)),
            (engine.apply("adjoint", y), matrix.spmv_transposed(y)),
        ):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)


class TestConcurrentCallers:
    @pytest.mark.parametrize("spec", ["thread:2", "thread:5"])
    def test_two_threads_solve_on_one_operator(
        self, geometry, operators, sinogram, spec
    ):
        """Two Python threads solving on one operator at once, switching
        as often as the interpreter allows, each get the serial bits and
        neither hangs (``thread:5`` has more workers than most hosts
        have cores)."""
        op = operators["csr"]
        op.set_workers("serial")
        ref = reconstruct(sinogram, geometry, solver="cg", iterations=8, operator=op).image
        op.set_workers(spec)
        images = [None, None]

        def solve(index):
            images[index] = reconstruct(
                sinogram, geometry, solver="cg", iterations=8, operator=op
            ).image

        threads = [threading.Thread(target=solve, args=(i,), daemon=True) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            op.set_workers(None)
        for image in images:
            assert image is not None and np.array_equal(image, ref)

    def test_a_pool_thread_runs_the_serial_kernel(self, operators):
        """An operator called from inside the shared pool does not wait
        on that pool: with every pool thread a caller, range tasks would
        queue behind them forever."""
        op = operators["csr"]
        x = np.random.default_rng(5).random(op.num_pixels).astype(np.float32)
        op.set_workers("serial")
        ref = op.forward(x)
        op.set_workers("thread:2")
        try:
            assert op._active_engine() is not None
            results = ThreadBackend(2).pool().map(op.forward, [x, x], timeout=60)
            for out in results:
                assert np.array_equal(out, ref)
        finally:
            op.set_workers(None)


class TestObservability:
    def test_parallel_counters_and_spans(self, operators):
        op = operators["buffered"]
        op.set_workers("thread:2")
        try:
            x = np.ones(op.num_pixels, dtype=np.float32)
            with obs.capture() as cap:
                op.forward(x)
            assert cap.total(obs.PARALLEL_DISPATCHES) == 1
            assert cap.total(obs.PARALLEL_TASKS) == 2
            spans = cap.find_spans("parallel.worker")
            assert len(spans) == 2
            assert {sp.attrs["worker"] for sp in spans} == {0, 1}
            for sp in spans:
                assert sp.duration >= 0.0
        finally:
            op.set_workers(None)


class TestSolverEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cgls_bit_identical(self, geometry, operators, sinogram, kernel):
        ref = reconstruct(
            sinogram, geometry, solver="cg", iterations=8, operator=operators[kernel]
        ).image
        for spec in WORKER_SPECS:
            operators[kernel].set_workers(spec)
            image = reconstruct(
                sinogram,
                geometry,
                solver="cg",
                iterations=8,
                operator=operators[kernel],
            ).image
            assert (image == ref).all(), spec
        operators[kernel].set_workers(None)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mapped_operator_bit_identical(
        self, geometry, operators, sinogram, kernel, tmp_path
    ):
        """A cache hit is read-only views of the entry's file map: a
        ``thread:2`` solve over it and a pickle round trip equal the
        serial in-memory operator's."""
        built = operators[kernel]
        ref = reconstruct(
            sinogram, geometry, solver="cg", iterations=8, operator=built
        ).image
        cache = PlanCache(tmp_path / "plans")
        cache.store("0" * 64, built)
        mapped = cache.load("0" * 64)
        assert not mapped.stored.val.flags.writeable
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.stored.val.flags.writeable
        for operator in (mapped, clone):
            for spec in ("serial", "thread:2"):
                operator.set_workers(spec)
                image = reconstruct(
                    sinogram, geometry, solver="cg", iterations=8,
                    operator=operator,
                ).image
                assert (image == ref).all(), spec
            operator.set_workers(None)
        built.set_workers(None)

    def test_fault_injected_run_with_workers(self, geometry, sinogram, operators):
        """Resilience machinery and the parallel backend compose."""
        op = operators["buffered"]
        kwargs = dict(
            solver="cg",
            iterations=6,
            num_ranks=2,
            faults=FaultConfig(drop=0.05, corrupt=0.02, seed=7),
            operator=op,
        )
        ref = reconstruct(sinogram, geometry, **kwargs)
        op.set_workers(2)
        parallel = reconstruct(sinogram, geometry, **kwargs)
        op.set_workers(None)
        assert (parallel.image == ref.image).all()
        assert parallel.extra["fault_stats"]["recoveries"] >= 1


class TestPreprocessFanOut:
    @pytest.mark.parametrize("spec", [2, "thread:3"])
    def test_traced_matrix_identical(self, geometry, spec):
        serial = build_projection_matrix(geometry)
        workers, mode = parse_workers(spec)
        backend = make_backend(workers, mode)
        try:
            fanned = build_projection_matrix(geometry, backend=backend)
        finally:
            backend.close()
        assert (fanned.indptr == serial.indptr).all()
        assert (fanned.indices == serial.indices).all()
        assert (fanned.data == serial.data).all()

    def test_preprocess_with_workers_matches(self, geometry):
        ref, _ = preprocess(geometry, config=OperatorConfig(partition_size=16, buffer_bytes=2048))
        par, _ = preprocess(
            geometry,
            config=OperatorConfig(partition_size=16, buffer_bytes=2048, workers=2),
        )
        try:
            assert (par.matrix.displ == ref.matrix.displ).all()
            assert (par.matrix.ind == ref.matrix.ind).all()
            assert (par.matrix.val == ref.matrix.val).all()
        finally:
            par.close()

    def test_cache_hit_applies_requested_workers(self, geometry, tmp_path):
        cache = PlanCache(tmp_path / "plans")
        cold, report = preprocess(geometry, cache=cache)
        assert not report.cache_hit
        warm, report = preprocess(
            geometry, config=OperatorConfig(workers=2), cache=cache
        )
        try:
            assert report.cache_hit
            assert warm.config.workers == 2
            x = np.ones(warm.num_pixels, dtype=np.float32)
            assert (warm.forward(x) == cold.forward(x)).all()
        finally:
            warm.close()


class TestPipelineWorkers:
    @pytest.fixture(scope="class")
    def stack(self):
        rng = np.random.default_rng(13)
        return rng.random((4, 32, 32)).astype(np.float32)

    @pytest.fixture(scope="class")
    def stack_geometry(self):
        return ParallelBeamGeometry(32, 32)

    def test_batched_volume_bit_identical(self, stack, stack_geometry):
        ref = reconstruct_stack(stack, stack_geometry, iterations=6).volume
        for spec in (2, "thread:3"):
            vol = reconstruct_stack(
                stack, stack_geometry, iterations=6,
                config=OperatorConfig(workers=spec),
            ).volume
            assert (vol == ref).all(), spec

    def test_sink_and_conveyor_bit_identical(self, stack, stack_geometry, tmp_path):
        """Workers compose with the conveyor's threads and a disk sink."""
        from repro.dataio import load_volume

        ref = reconstruct_stack(stack, stack_geometry, iterations=6).volume
        for spec in (2, "thread:3"):
            result = reconstruct_stack(
                stack, stack_geometry, iterations=6,
                config=OperatorConfig(workers=spec), chunk_slices=2,
                prefetch=2, sink=tmp_path / f"vol-{spec}.raw",
            )
            assert (load_volume(result.extra["output_path"]) == ref).all(), spec

    def test_env_var_workers(self, stack, stack_geometry, monkeypatch):
        ref = reconstruct_stack(stack, stack_geometry, iterations=4).volume
        monkeypatch.setenv("REPRO_WORKERS", "2")
        vol = reconstruct_stack(stack, stack_geometry, iterations=4).volume
        assert (vol == ref).all()


class TestBufferedPlanPersistence:
    """A warmed operator's `_view` never rides along into its archive."""

    @pytest.mark.parametrize("angles", [23, 24])
    def test_warm_operator_cache_roundtrip(self, tmp_path, angles, row_loops, native_calls):
        """Regression: a warmed operator persists and reloads cleanly,
        and the loaded copy rebuilds its view lazily.  The buffered
        config builds no layout, so the view is the plan's own: ``A``'s
        on 23 views, ``Q``'s on 24 (an 8-slot scan) unless the compiled
        8-column gather ran there, which derives none."""
        geometry = ParallelBeamGeometry(angles, 24)
        cache = PlanCache(tmp_path / "plans")
        op, _ = preprocess(
            geometry,
            # Serial whatever REPRO_WORKERS says: a parallel run warms
            # the views of the workers' slices, not the layout's own.
            config=OperatorConfig(
                kernel="buffered", partition_size=16, buffer_bytes=1024, workers="serial"
            ),
            cache=cache,
        )
        x = np.ones(op.num_pixels, dtype=np.float32)
        warm_result = op.forward(x)  # derives the compiled view
        native = angles == 24 and row_loops == "native"
        assert native_calls == ([("gather", 8)] if native else [])
        assert op.buffered_forward is None and hasattr(op.stored, "_view") != native
        path = tmp_path / "op.npz"
        save_operator(path, op)
        loaded = load_operator(path)
        loaded.set_workers("serial")
        assert not hasattr(loaded.stored, "_view")
        assert (loaded.forward(x) == warm_result).all()
        assert hasattr(loaded.stored, "_view") != native


class TestValidationFixes:
    @pytest.mark.parametrize("bad", [3, 30, 4097, 1023])
    def test_buffer_bytes_must_be_element_multiple(self, bad):
        with pytest.raises(ValueError, match="multiple"):
            validate_buffer_bytes(bad)
        with pytest.raises(ValueError, match="multiple"):
            OperatorConfig(kernel="buffered", buffer_bytes=bad)

    @pytest.mark.parametrize("good", [4, 1024, 2048, 256 * 1024])
    def test_buffer_bytes_multiples_accepted(self, good):
        assert validate_buffer_bytes(good) == good // 4
        OperatorConfig(kernel="buffered", buffer_bytes=good)

    def test_permute_rejects_bad_row_perm(self, small_matrix):
        with pytest.raises(ValueError, match="row_perm"):
            small_matrix.permute(np.array([0, small_matrix.num_rows]), None)
        with pytest.raises(ValueError, match="row_perm"):
            small_matrix.permute(np.array([[0, 1]]), None)

    def test_permute_rejects_bad_col_rank(self, small_matrix):
        ncols = small_matrix.num_cols
        with pytest.raises(ValueError, match="shape"):
            small_matrix.permute(None, np.arange(ncols - 1))
        with pytest.raises(ValueError, match="outside"):
            rank = np.arange(ncols)
            rank[0] = ncols
            small_matrix.permute(None, rank)
        with pytest.raises(ValueError, match="injective"):
            rank = np.arange(ncols)
            rank[1] = rank[0]
            small_matrix.permute(None, rank)

    def test_permute_still_allows_row_subsets(self, small_matrix):
        sub = small_matrix.permute(np.array([3, 1, 3]), None)
        assert sub.num_rows == 3


class TestPartitionSlices:
    """CSR slices are the unit the engine is built on — cover the
    slicing math directly, including ragged final partitions."""

    def test_csr_row_block(self, small_matrix):
        """CSR has no blocking of its own: any partition size cuts it."""
        x = np.random.default_rng(0).random(small_matrix.num_cols).astype(np.float32)
        ref = small_matrix.spmv(x)
        mid = small_matrix.num_rows // 3  # two ragged "partitions" of mid rows + rest
        parts = [
            small_matrix.partition_slice(0, 1, mid).spmv(x),
            small_matrix.partition_slice(1, 3, mid).spmv(x),
        ]
        assert (np.concatenate(parts) == ref).all()
        with pytest.raises(ValueError):
            small_matrix.partition_slice(1, 4, mid)
