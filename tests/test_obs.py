"""The observability layer: spans, counters, capture scoping, export,
CLI trace surface, and the disabled-overhead guarantee."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.solvers import cgls, sirt

from .conftest import with_layouts


class TestSpans:
    def test_span_measures_duration_without_capture(self):
        with obs.span("idle") as sp:
            time.sleep(0.002)
        assert sp.duration >= 0.002
        assert not obs.REGISTRY.active

    def test_capture_collects_spans(self):
        with obs.capture() as cap:
            with obs.span("outer"):
                with obs.span("inner", detail=7):
                    pass
        assert cap.span_names() == ["inner", "outer"]
        (inner,) = cap.find_spans("inner")
        assert inner.attrs == {"detail": 7}
        assert inner.parent is cap.find_spans("outer")[0]

    def test_span_tree_roots_and_children(self):
        with obs.capture() as cap:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("c"):
                    pass
            with obs.span("d"):
                pass
        roots = cap.roots()
        assert [r.name for r in roots] == ["a", "d"]
        a = cap.find_spans("a")[0]
        assert [c.name for c in cap.children(a)] == ["b", "c"]

    def test_nothing_recorded_outside_capture(self):
        with obs.span("before"):
            pass
        with obs.capture() as cap:
            pass
        with obs.span("after"):
            pass
        assert cap.spans == []

    def test_nested_captures_both_record(self):
        with obs.capture() as outer:
            with obs.span("first"):
                pass
            with obs.capture() as inner:
                with obs.span("second"):
                    pass
        assert outer.span_names() == ["first", "second"]
        assert inner.span_names() == ["second"]

    def test_span_survives_exception(self):
        with obs.capture() as cap:
            with pytest.raises(RuntimeError):
                with obs.span("failing"):
                    raise RuntimeError("boom")
            with obs.span("next"):
                pass
        assert cap.span_names() == ["failing", "next"]
        # The failing span must have been popped: "next" is a root.
        assert cap.find_spans("next")[0].parent is None

    def test_traced_decorator(self):
        @obs.traced("math.double")
        def double(v):
            return 2 * v

        assert double(21) == 42  # inactive: plain call
        with obs.capture() as cap:
            assert double(21) == 42
        assert cap.span_names() == ["math.double"]


class TestCounters:
    def test_add_count_accumulates(self):
        with obs.capture() as cap:
            obs.add_count(obs.SPMV_FLOPS, 100)
            obs.add_count(obs.SPMV_FLOPS, 50)
        assert cap.total(obs.SPMV_FLOPS) == 150
        assert cap.events(obs.SPMV_FLOPS) == 2
        assert cap.counters[obs.SPMV_FLOPS].unit == "flop"

    def test_unit_mismatch_rejected(self):
        with obs.capture():
            obs.add_count("custom.counter", 1, unit="widget")
            with pytest.raises(ValueError, match="unit"):
                obs.add_count("custom.counter", 1, unit="byte")

    def test_unknown_counter_defaults_to_count_unit(self):
        with obs.capture() as cap:
            obs.add_count("adhoc.thing", 3)
        assert cap.counters["adhoc.thing"].unit == "count"

    def test_add_count_noop_when_inactive(self):
        obs.add_count(obs.SPMV_FLOPS, 10**9)  # must not raise or leak
        with obs.capture() as cap:
            pass
        assert cap.total(obs.SPMV_FLOPS) == 0.0

    def test_counter_events_record_running_total(self):
        with obs.capture() as cap:
            obs.add_count(obs.COMM_BYTES, 10)
            obs.add_count(obs.COMM_BYTES, 5)
        totals = [total for _, name, total in cap.counter_events if name == obs.COMM_BYTES]
        assert totals == [10, 15]


class TestCounterDeclarations:
    """Each canonical counter is declared once; the names, values and
    units that declaration exports are pinned to the hand-written lists
    it replaced."""

    UNITS = {
        "BUFFER_STAGES": ("buffer.stages", "stage"),
        "CACHE_BYTES_READ": ("cache.bytes_read", "byte"),
        "CACHE_BYTES_WRITTEN": ("cache.bytes_written", "byte"),
        "CACHE_EVICTIONS": ("cache.evictions", "entry"),
        "CACHE_HITS": ("cache.hits", "hit"),
        "CACHE_MISSES": ("cache.misses", "miss"),
        "CHECKPOINT_BYTES_WRITTEN": ("checkpoint.bytes_written", "byte"),
        "CHECKPOINT_RESTORES": ("checkpoint.restores", "snapshot"),
        "CHECKPOINT_SAVES": ("checkpoint.saves", "snapshot"),
        "COMM_BYTES": ("comm.bytes", "byte"),
        "COMM_INTER_BYTES": ("comm.inter_bytes", "byte"),
        "COMM_INTER_MESSAGES": ("comm.inter_messages", "message"),
        "COMM_INTRA_BYTES": ("comm.intra_bytes", "byte"),
        "COMM_INTRA_MESSAGES": ("comm.intra_messages", "message"),
        "COMM_MESSAGES": ("comm.messages", "message"),
        "DATAIO_BYTES_READ": ("dataio.bytes_read", "byte"),
        "DATAIO_BYTES_WRITTEN": ("dataio.bytes_written", "byte"),
        "DATAIO_QUEUE_DEPTH": ("dataio.queue_depth", "chunk"),
        "DATAIO_READ_RETRIES": ("dataio.read_retries", "attempt"),
        "DATAIO_READ_SECONDS": ("dataio.read_seconds", "second"),
        "DATAIO_WRITE_SECONDS": ("dataio.write_seconds", "second"),
        "DTYPE_FP32_SPMV": ("dtype.fp32_spmv", "call"),
        "DTYPE_FP64_SPMV": ("dtype.fp64_spmv", "call"),
        "FAULT_CORRUPTIONS": ("fault.corruptions", "message"),
        "FAULT_CRASHES": ("fault.crashes", "rank"),
        "FAULT_DELAYS": ("fault.delays", "message"),
        "FAULT_DROPS": ("fault.drops", "message"),
        "FAULT_RECOVERIES": ("fault.recoveries", "event"),
        "FAULT_RETRIES": ("fault.retries", "attempt"),
        "HEALTH_EVENTS": ("health.events", "event"),
        "HEALTH_ROLLBACKS": ("health.rollbacks", "rollback"),
        "PARALLEL_DISPATCHES": ("parallel.dispatches", "dispatch"),
        "PARALLEL_SHM_BYTES": ("parallel.shm_bytes", "byte"),
        "PARALLEL_TASKS": ("parallel.tasks", "task"),
        "PIPELINE_CHUNKS": ("pipeline.chunks", "chunk"),
        "PIPELINE_RESUMED_SLICES": ("pipeline.resumed_slices", "slice"),
        "PIPELINE_SLICES": ("pipeline.slices", "slice"),
        "SCENARIO_CENTER_CANDIDATES": ("scenario.center_candidates", "candidate"),
        "SCENARIO_RUNS": ("scenario.runs", "run"),
        "SCENARIO_VIEWS_DROPPED": ("scenario.views_dropped", "view"),
        "SERVICE_BATCHES": ("service.batches", "solve"),
        "SERVICE_COALESCED_JOBS": ("service.coalesced_jobs", "job"),
        "SERVICE_COMPLETED": ("service.completed", "job"),
        "SERVICE_EVICTIONS": ("service.evictions", "job"),
        "SERVICE_EXPIRED": ("service.expired", "job"),
        "SERVICE_FAILED": ("service.failed", "job"),
        "SERVICE_JOURNAL_RECORDS": ("service.journal_records", "record"),
        "SERVICE_RECOVERED": ("service.recovered", "job"),
        "SERVICE_REJECTED": ("service.rejected", "job"),
        "SERVICE_RETRIES": ("service.retries", "attempt"),
        "SERVICE_SUBMITTED": ("service.submitted", "job"),
        "SOLVER_ITERATIONS": ("solver.iterations", "iteration"),
        "SPMV_CALLS": ("spmv.calls", "call"),
        "SPMV_FLOPS": ("spmv.flops", "flop"),
        "SPMV_IRREGULAR_BYTES": ("spmv.irregular_bytes", "byte"),
        "SPMV_REGULAR_BYTES": ("spmv.regular_bytes", "byte"),
    }
    OTHER = {
        "Counter", "unit_of", "chrome_trace", "write_chrome_trace", "REGISTRY",
        "Capture", "Registry", "add_count", "capture", "SpanRecord", "emit_span",
        "span", "traced",
    }

    def test_exported_names_are_the_parent_s_set(self):
        from repro.obs import counters

        assert len(obs.__all__) == len(set(obs.__all__)) == 69
        assert set(obs.__all__) == set(self.UNITS) | self.OTHER
        assert set(counters.__all__) == set(self.UNITS) | {"Counter", "unit_of"}

    def test_every_constant_keeps_its_value_and_unit(self):
        from repro.obs import counters

        for constant, (name, unit) in self.UNITS.items():
            assert getattr(obs, constant) == getattr(counters, constant) == name
            assert obs.unit_of(name) == unit
        assert len(counters.CANONICAL_UNITS) == len(self.UNITS)
        assert obs.unit_of("ad.hoc") == "count"


class TestChromeExport:
    def test_export_structure(self, tmp_path):
        with obs.capture() as cap:
            with obs.span("work", size=3):
                obs.add_count(obs.SPMV_FLOPS, 7)
        path = tmp_path / "trace.json"
        cap.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "M"} <= phases
        (work,) = [e for e in doc["traceEvents"] if e.get("name") == "work"]
        assert work["ph"] == "X"
        assert work["dur"] >= 0
        assert work["args"] == {"size": 3}

    def test_timestamps_relative_to_origin(self):
        with obs.capture() as cap:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        doc = cap.to_chrome_trace()
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(ts) == 0.0
        assert ts == sorted(ts)

    def test_empty_capture_exports(self, tmp_path):
        with obs.capture() as cap:
            pass
        path = tmp_path / "empty.json"
        cap.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


class TestInstrumentation:
    def test_preprocess_emits_three_stage_spans(self, small_geometry):
        with obs.capture() as cap:
            _, report = preprocess(small_geometry)
        (root,) = cap.find_spans("preprocess")
        stages = [c.name for c in cap.children(root)]
        assert stages == [
            "preprocess.ordering",
            "preprocess.tracing",
            "preprocess.transpose",
        ]
        # Spans still populate the report, and they agree.
        (tracing,) = cap.find_spans("preprocess.tracing")
        assert report.tracing_seconds == pytest.approx(tracing.duration)
        assert report.total_seconds > 0

    @pytest.mark.parametrize("angles", [35, 36])
    @pytest.mark.parametrize("kernel", ["csr", "buffered", "ell"])
    def test_spmv_counters_per_kernel(self, kernel, angles):
        """The buffered and ELL pairs are handed in, built from ``A``
        on 35 views and on 36 (whose csr operator runs the orbit SpMM);
        buffer stages are counted only where the buffered layout runs."""
        op = with_layouts(preprocess(
            ParallelBeamGeometry(angles, 24),
            config=OperatorConfig(kernel=kernel, partition_size=32, buffer_bytes=4096),
        )[0])
        x = np.ones(op.num_pixels, dtype=np.float32)
        with obs.capture() as cap:
            op.forward(x)
            op.adjoint(np.ones(op.num_rays, dtype=np.float32))
        assert cap.total(obs.SPMV_CALLS) == 2
        assert cap.total(obs.SPMV_FLOPS) == 2 * 2 * op.matrix.nnz
        footprint = op.memory_footprint()
        assert cap.total(obs.SPMV_REGULAR_BYTES) == (
            footprint["regular_forward"] + footprint["regular_adjoint"]
        )
        assert cap.total(obs.SPMV_IRREGULAR_BYTES) == (
            footprint["irregular_forward"] + footprint["irregular_adjoint"]
        )
        spans = cap.span_names()
        assert spans.count("spmv.forward") == 1
        assert spans.count("spmv.adjoint") == 1
        assert (cap.total(obs.BUFFER_STAGES) > 0) == (kernel == "buffered")

    def test_solver_iteration_spans_nested_under_solve(self, small_operator):
        y = small_operator.forward(np.ones(small_operator.num_pixels, dtype=np.float32))
        with obs.capture() as cap:
            result = cgls(small_operator, y, num_iterations=4)
        (solve,) = cap.find_spans("solver.solve")
        assert solve.attrs["solver"] == "cg"
        iterations = cap.find_spans("solver.iteration")
        assert len(iterations) == result.iterations == 4
        assert all(s.parent is solve for s in iterations)
        assert cap.total(obs.SOLVER_ITERATIONS) == 4
        # Each iteration contains one forward and one adjoint SpMV.
        first = iterations[0]
        kinds = sorted(c.name for c in cap.children(first))
        assert kinds == ["spmv.adjoint", "spmv.forward"]

    def test_sirt_iterations_observed(self, small_operator):
        y = small_operator.forward(np.ones(small_operator.num_pixels, dtype=np.float32))
        with obs.capture() as cap:
            sirt(small_operator, y, num_iterations=3)
        assert len(cap.find_spans("solver.iteration")) == 3
        assert cap.find_spans("solver.solve")[0].attrs["solver"] == "sirt"

    @pytest.mark.parametrize("loop_fallback", [False, True])
    def test_slab_solve_spans_and_logical_counts(self, small_operator, loop_fallback):
        """An S = 4 slab with an early-frozen column: ``batch=`` on the
        solver spans, ``solver.iterations`` counts per-column iterations,
        and ``spmv.calls`` counts no application beyond the recurrence's
        (frozen columns drop out of CG's adjoint)."""
        from repro.solvers import cgls_batch

        from .solver_conformance import LoopOnlyOperator

        op = LoopOnlyOperator(small_operator) if loop_fallback else small_operator
        Y = np.abs(np.random.default_rng(5).normal(size=(op.num_rays, 4)))
        Y[:, 2] = 0.0  # zero gradient at start: frozen before iteration 0
        with obs.capture() as cap:
            result = cgls_batch(op, Y, num_iterations=3)
        assert list(result.iterations) == [3, 3, 0, 3]
        (solve,) = cap.find_spans("solver.solve")
        assert solve.attrs["batch"] == 4
        iterations = cap.find_spans("solver.iteration")
        assert len(iterations) == 3
        assert all(s.parent is solve and s.attrs["batch"] == 4 for s in iterations)
        assert cap.total(obs.SOLVER_ITERATIONS) == 9
        # init: adjoint on 4 columns (a zero start needs no forward);
        # per iteration: forward on the whole slab (4), adjoint on the 3
        # live columns — except the last, whose gradient nothing reads.
        assert cap.total(obs.SPMV_CALLS) == 4 + (4 + 3) + (4 + 3) + 4

    def test_single_solve_spans_carry_no_batch_attribute(self, small_operator):
        """A single solve is told apart on its *solver* spans (no
        ``batch``); underneath it is the one-column slab solve, so its
        ``spmv.*`` spans say ``batch=1`` and count one call each."""
        y = small_operator.forward(np.ones(small_operator.num_pixels, dtype=np.float32))
        with obs.capture() as cap:
            sirt(small_operator, y, num_iterations=2)
        spans = cap.find_spans("solver.solve") + cap.find_spans("solver.iteration")
        assert len(spans) == 3 and all("batch" not in s.attrs for s in spans)
        kernels = cap.find_spans("spmv.forward") + cap.find_spans("spmv.adjoint")
        # One adjoint + one forward per iteration; a zero start needs no
        # initial forward.
        assert len(kernels) == 2 * 2
        assert all(s.attrs["batch"] == 1 for s in kernels)
        assert cap.total(obs.SPMV_CALLS) == 2 * 2

    def test_comm_counters_from_simulated_mpi(self):
        from repro.dist import SimComm

        comm = SimComm(3)
        payload = [
            [np.ones(4, dtype=np.float32) for _ in range(3)] for _ in range(3)
        ]
        with obs.capture() as cap:
            comm.alltoallv(payload)
        # 6 off-diagonal messages of 16 bytes; diagonal self-sends excluded.
        assert cap.total(obs.COMM_BYTES) == 6 * 16
        assert cap.total(obs.COMM_MESSAGES) == 6
        assert cap.span_names().count("comm.alltoallv") == 1
        assert cap.total(obs.COMM_BYTES) == comm.log.off_diagonal_volume()


class TestCLITraceSurface:
    def test_reconstruct_trace_file_structure(self, tmp_path):
        trace = tmp_path / "t.json"
        out = tmp_path / "r.npz"
        assert main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "4", "--trace", str(trace), "-o", str(out),
        ]) == 0
        doc = json.loads(trace.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        for stage in (
            "preprocess.ordering",
            "preprocess.tracing",
            "preprocess.transpose",
        ):
            assert names.count(stage) == 1, stage
        assert names.count("solver.iteration") == 4
        assert names.count("solver.solve") == 1
        assert "spmv.forward" in names

    def test_metrics_flag_prints_counters(self, tmp_path, capsys):
        assert main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "2", "--metrics", "-o", str(tmp_path / "r.npz"),
        ]) == 0
        out = capsys.readouterr().out
        assert "spmv.flops" in out
        assert "solver.iterations" in out

    def test_trace_flag_parses_on_all_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["info", "--metrics"],
            ["preprocess", "--angles", "8", "--channels", "8", "--trace", "t.json"],
            ["reconstruct", "--demo", "ADS1", "--trace", "t.json"],
            ["scenario", "cone", "--trace", "t.json"],
            ["scale", "--metrics"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "trace") and hasattr(args, "metrics")

    def test_registry_inactive_after_cli_capture(self, tmp_path):
        main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.1",
            "--iterations", "1", "--trace", str(tmp_path / "t.json"),
            "-o", str(tmp_path / "r.npz"),
        ])
        assert not obs.REGISTRY.active


class TestDisabledOverhead:
    @pytest.mark.parametrize("drop_a_view", [True, False])
    def test_spmv_overhead_within_5_percent_when_disabled(self, drop_a_view):
        """Instrumented operator dispatch vs the bare kernel it wraps.

        Mirrors the ``bench_kernels.py`` small case (scaled ADS2
        buffered SpMV).  With no capture active the operator's
        ``forward`` must stay within 5% of calling the underlying
        kernel directly — the instrumentation is one attribute check.
        ADS2's 94 views form an 8-slot scan, whose operator runs the
        orbit SpMM; with one view dropped (93, odd ``M``) the buffered
        layout is handed in and runs.
        """
        from repro.core import get_dataset

        geometry = get_dataset("ADS2").scaled(0.125).geometry()
        if drop_a_view:
            geometry = ParallelBeamGeometry(geometry.num_angles - 1, geometry.num_channels)
        op, _ = preprocess(geometry, OperatorConfig(kernel="buffered"))
        if drop_a_view:
            op = with_layouts(op)
        assert (op.buffered_forward is not None) == drop_a_view
        x = np.random.default_rng(0).random(op.num_pixels).astype(np.float32)
        kernel = (op.buffered_forward if drop_a_view else op.plan).spmv

        def timed(fn):
            t0 = time.perf_counter()
            fn(x)
            return time.perf_counter() - t0

        for _ in range(5):  # warm up
            timed(kernel)
        # Time the two back to back, alternating which goes first, and
        # hold the median of the paired ratios to 5 %: a host slowdown
        # hits both calls of a pair alike, so neither a burst nor a
        # single lucky sample on one side decides the comparison (as it
        # can for two independent minima of a ~0.2 ms kernel).
        ratios = []
        for i in range(300):
            if i % 2:
                bare = timed(kernel)
                instrumented = timed(op.forward)
            else:
                instrumented = timed(op.forward)
                bare = timed(kernel)
            ratios.append(instrumented / bare)
        overhead = float(np.median(ratios))
        assert not obs.REGISTRY.active
        assert overhead <= 1.05, (
            f"disabled-obs overhead too high: {overhead:.3f}x the bare kernel"
        )
