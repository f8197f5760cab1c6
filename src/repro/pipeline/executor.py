"""Streaming multi-slice reconstruction executor.

The memory-centric bargain of the paper (Table 5) is that
preprocessing is paid once per *scan geometry* and amortized over every
slice of a 3D dataset.  This executor completes that story end-to-end:

* the raw ``(slices, angles, channels)`` stack is pulled chunk-by-chunk
  from a :class:`~repro.dataio.ChunkSource` — an in-memory array, an
  ``.npz``-shard directory, or an HDF5/tomobank file — sized by an
  explicit slice count or a memory budget, so arbitrarily tall stacks
  run in bounded memory without ever materializing the full raw array;
* each chunk flows through the conditioning stages
  (:mod:`repro.pipeline.stages`) and then into a **batched multi-RHS
  solve** — one cached operator drives all slices of the chunk per
  iteration, streaming the matrix once instead of once per slice;
* every solved slab goes through the conveyor
  (:mod:`repro.dataio.conveyor`) into a :class:`~repro.dataio.ChunkSink`
  — the in-memory volume is a :class:`~repro.dataio.VolumeSink`, disk
  outputs are shard directories or flat files.  With ``prefetch >= 1``
  a reader thread pulls the next chunks ahead of the solve and a writer
  thread drains finished slabs behind it, so disk time on both ends
  hides under the solve;
* after every chunk the run is checkpointed through
  :class:`repro.resilience.CheckpointManager`, so a killed run resumes
  at the next chunk with a bit-identical final volume.  The checkpoint
  fingerprint binds the *full* configuration — stack content, solver,
  iterations, tolerance, solver kwargs, solve precision, and the exact
  conditioning chain — so resuming against anything different is
  refused rather than silently blending two configurations.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.operator import MemXCTOperator, OperatorConfig
from ..core.preprocess import PreprocessReport, preprocess
from ..dataio import (
    ChunkSink,
    ChunkSource,
    Conveyor,
    ConveyorProgress,
    VolumeSink,
    make_sink,
    open_source,
)
from ..geometry import ParallelBeamGeometry
from ..obs import (
    PIPELINE_CHUNKS,
    PIPELINE_RESUMED_SLICES,
    PIPELINE_SLICES,
    add_count,
    span,
)
from ..precision import solver_dtype
from ..resilience.checkpoint import CheckpointError, CheckpointManager, SolverCheckpoint
from ..solvers.table import clip_counts, solver_row
from ..solvers import cgls_batch, mlem_batch, sirt_batch  # row entries
from .stages import Stage, StageContext, default_stages

__all__ = [
    "StackResult",
    "reconstruct_stack",
    "chunk_slices_for_budget",
]

#: Checkpoint tag distinguishing stack checkpoints from solver ones.
_CHECKPOINT_SOLVER = "pipeline"


@dataclass
class StackResult:
    """Everything produced by one stack reconstruction.

    ``volume`` is the assembled ``(slices, n, n)`` array when the slabs
    went to a :class:`~repro.dataio.VolumeSink` (the default without
    ``sink=``) and ``None`` when a disk sink streamed them out — the
    finalized location is then in ``extra["output_path"]``.
    ``extra["stage_times"]`` maps each conditioning stage name (plus
    ``"solve"``) to accumulated wall seconds — the split the CLI's
    ``--metrics`` prints so conditioning cost is visible next to solve
    cost without exporting a trace.
    """

    volume: np.ndarray | None
    operator: MemXCTOperator
    preprocess_report: PreprocessReport
    solver: str
    chunks: list[dict] = field(default_factory=list)
    stage_times: dict[str, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    total_slices: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_slices(self) -> int:
        return self.volume.shape[0] if self.volume is not None else self.total_slices


def chunk_slices_for_budget(
    budget_bytes: int,
    num_rays: int,
    num_pixels: int,
    num_slices: int,
    *,
    itemsize: int = 8,
    volume_in_memory: bool = True,
    prefetch: int = 0,
) -> int:
    """Slices per chunk that fit a working-set memory budget.

    The model (documented in ``docs/pipeline.md``) charges, per slice
    of a chunk, ~4 ray-length and ~4 pixel-length solver vectors at the
    solve precision's ``itemsize`` (8 for the float64 default, 4 on the
    fp32 path) plus the float64 conditioned chunk itself — multiplied
    by ``1 + prefetch`` since the conveyor parks that many extra raw
    chunks ahead of the solve.  When the accumulated output volume
    stays in memory (``volume_in_memory=True``, i.e. no streaming
    sink), its fixed float64 footprint is carved out of the budget
    first.  Always returns at least 1: a single slice is the
    irreducible working set.
    """
    if budget_bytes <= 0:
        raise ValueError(f"memory budget must be positive, got {budget_bytes}")
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    if prefetch < 0:
        raise ValueError(f"prefetch must be >= 0, got {prefetch}")
    solve_per_slice = itemsize * (4 * num_rays + 4 * num_pixels)
    chunk_per_slice = 8 * num_rays * (1 + prefetch)
    per_slice = solve_per_slice + chunk_per_slice
    fixed = 8 * num_pixels * num_slices if volume_in_memory else 0
    available = budget_bytes - fixed
    return int(max(1, min(num_slices, available // per_slice)))


def _stack_fingerprint(
    source: ChunkSource,
    solver: str,
    iterations: int,
    tolerance: float,
    solve_dtype: str,
    stages: list[Stage],
    solver_kwargs: dict,
) -> np.ndarray:
    """Content hash binding a checkpoint to its exact configuration.

    Everything that changes the final volume participates: the stack
    content (via the source fingerprint), solver, iteration budget,
    tolerance, solve precision, every conditioning-stage parameter
    (:meth:`~repro.pipeline.stages.Stage.signature`), and any extra
    solver kwargs.  The leading version tag deliberately invalidates
    checkpoints from the earlier, under-binding scheme.
    """
    h = hashlib.sha256()
    h.update(b"stack-fingerprint-v2:")
    h.update(source.fingerprint())
    h.update(f"{solver}:{iterations}:{float(tolerance)!r}:{solve_dtype}".encode())
    for stage in stages:
        h.update(stage.signature().encode())
        h.update(b";")
    for key in sorted(solver_kwargs):
        h.update(f"{key}={solver_kwargs[key]!r};".encode())
    return np.frombuffer(h.digest(), dtype=np.uint8).copy()


def _done_runs(done: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` runs of True in a boolean mask."""
    runs: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(done):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(done)))
    return runs


def _resume(snapshot: SolverCheckpoint, fingerprint: np.ndarray, sink: ChunkSink,
            ctx: StageContext) -> np.ndarray:
    """Validate a stack checkpoint and return its done mask.

    A checkpoint that holds a volume replays its completed slices into
    ``sink``, whatever kind it is; one without a volume (written by a
    disk-sink run, whose own output holds the data) cannot fill an
    in-memory volume.
    """
    if snapshot.solver != _CHECKPOINT_SOLVER:
        raise CheckpointError(
            f"checkpoint holds {snapshot.solver!r} state, not a "
            "pipeline stack checkpoint"
        )
    stored = snapshot.arrays.get("fingerprint")
    if stored is None or not np.array_equal(stored, fingerprint):
        raise CheckpointError(
            "checkpoint fingerprint does not match this stack/solver/"
            "iterations/tolerance/precision/stage configuration; "
            "refusing to resume against different inputs"
        )
    done = np.asarray(snapshot.arrays["done"], dtype=bool).copy()
    stored_volume = snapshot.arrays.get("volume")
    if stored_volume is not None:
        stored_volume = np.asarray(stored_volume, dtype=np.float64)
        for a, b in _done_runs(done):
            sink.write(a, b, stored_volume[a:b])
    elif isinstance(sink, VolumeSink):
        raise CheckpointError(
            "checkpoint was written by a streaming-sink run and "
            "holds no volume; resume with the same sink"
        )
    if "center_shift" in snapshot.scalars:
        ctx.info["center_shift"] = snapshot.scalars["center_shift"]
    return done


def reconstruct_stack(
    raw_stack,
    geometry: ParallelBeamGeometry | None = None,
    *,
    darks: np.ndarray | None = None,
    flats: np.ndarray | None = None,
    stages: list[Stage] | None = None,
    solver: str = "cg",
    iterations: int = 30,
    tolerance: float = 0.0,
    chunk_slices: int | None = None,
    memory_budget_bytes: int | None = None,
    operator: MemXCTOperator | None = None,
    config: OperatorConfig | None = None,
    ordering: str = "pseudo-hilbert",
    cache=None,
    checkpoint=None,
    resume: bool = False,
    max_chunks: int | None = None,
    sink=None,
    compress: bool = False,
    prefetch: int = 0,
    progress=None,
    **solver_kwargs,
) -> StackResult:
    """Reconstruct a 3D stack of sinograms through the staged pipeline.

    Every chunk is solved as one slab by the solver row's multi-RHS
    entry: column ``j`` of a slab is bit-identical to the single-slice
    solve of slice ``j``.

    Parameters
    ----------
    raw_stack:
        The raw acquisition: a ``(slices, angles, channels)`` array,
        any :class:`~repro.dataio.ChunkSource`, or a path
        :func:`~repro.dataio.open_source` understands (an ``.npz``
        stack, a shard directory, or an HDF5/tomobank file).  Raw
        photon counts when ``darks``/``flats`` (or equivalent stages)
        are supplied, line integrals otherwise.  The source is closed
        when the call returns or raises.
    geometry:
        Per-slice scan geometry; inferred from the stack shape when
        omitted.
    darks, flats:
        Calibration frames for the default conditioning chain (see
        :func:`repro.pipeline.default_stages`).  Default to whatever
        the source carries (e.g. tomobank ``data_dark``/``data_white``);
        ignored when ``stages`` is given explicitly.
    stages:
        Explicit conditioning chain.  Defaults to
        ``default_stages(darks, flats)`` when calibration is supplied,
        otherwise to no conditioning at all.
    solver:
        A ``slab`` row of :data:`repro.solvers.SOLVER_TABLE` (cg, sirt, mlem).
    tolerance:
        Per-slice early-stop tolerance (a per-column convergence mask
        in the slab); ``0`` runs the full budget.
    chunk_slices, memory_budget_bytes:
        Chunking policy: an explicit slice count, or a working-set
        budget fed to :func:`chunk_slices_for_budget` (dtype-aware, and
        aware of whether the output volume stays in memory).  Default
        is one chunk for the whole stack.
    operator, config, ordering, cache:
        Operator reuse and construction knobs, as in
        :func:`repro.core.reconstruct`: a passed ``operator`` is adopted
        as is, otherwise :func:`repro.core.preprocess` builds one from
        ``config`` (kernel, layout sizes, precision, worker spec);
        ``cache`` enables the on-disk plan cache so warm runs skip
        preprocessing entirely.  A worker spec parallelizes each
        multi-RHS SpMV across partition ranges (the volume is
        bit-identical to a serial run); with ``dtype="float32"`` the
        right-hand sides and solver state run in single precision and
        the assembled volume stays float64.
    checkpoint:
        Path (or :class:`~repro.resilience.CheckpointManager`) for
        per-chunk checkpoints.  With the in-memory
        :class:`~repro.dataio.VolumeSink` the accumulated volume is
        checkpointed; with a disk sink only the done mask is (the
        sink's own crash-safe output holds the data).  A chunk is
        marked done only once the sink has confirmed its slab.
    resume:
        Continue from ``checkpoint``.  The checkpoint's content
        fingerprint must match this exact stack/solver/iterations/
        tolerance/precision/stage configuration — resuming against
        anything different raises
        :class:`~repro.resilience.CheckpointError`.  Completed chunks
        are skipped (never re-read from the source); a checkpointed
        volume is replayed into this run's sink, so an in-memory
        checkpoint can finish in memory or on disk.  The final volume
        is bit-identical to an uninterrupted run.
    max_chunks:
        Stop (cleanly, after checkpointing) once this many chunks were
        processed in *this* run — the hook CI uses to simulate a kill.
    sink:
        Where reconstructed slabs go: a :class:`~repro.dataio.ChunkSink`,
        or a destination path for :func:`~repro.dataio.make_sink` (a
        shard directory, or a ``.raw`` file).  Defaults to an in-memory
        :class:`~repro.dataio.VolumeSink`, returned as
        ``StackResult.volume``; with a disk sink ``volume`` is ``None``
        and ``extra["output_path"]`` points at the finalized output.
        The sink is closed when the call returns or raises.
    compress:
        Write deflated shard archives when ``sink`` is a shard-directory
        path (trades write CPU for disk bytes); rejected for ``.raw``
        destinations.  Ignored when ``sink`` is already a constructed
        :class:`~repro.dataio.ChunkSink`.
    prefetch:
        Read-ahead depth for the overlapped conveyor; ``0`` (default)
        runs source reads and sink writes synchronously.  The volume is
        bit-identical either way.
    progress:
        ``True`` for a queue-depth-driven progress/ETA line on stderr,
        or any object with ``update(done_slices, backlog)`` / ``done()``.
    """
    t_start = time.perf_counter()
    row = solver_row(solver, slab=True)
    with contextlib.ExitStack() as cleanup:
        # The run's head and tail are not overlapped by anything: opening
        # the source, starting the conveyor, draining the last write and
        # finalizing the sink each get a span, so a trace has no gap there.
        with span("pipeline.open"):
            source = open_source(raw_stack, darks=darks, flats=flats)
        cleanup.callback(source.close)
        darks, flats = source.darks, source.flats
        num_slices = source.num_slices
        if geometry is None:
            geometry = ParallelBeamGeometry(source.shape[1], source.shape[2])
        if source.shape[1:] != geometry.sinogram_shape:
            raise ValueError(
                f"stack slices have shape {source.shape[1:]}, geometry expects "
                f"{geometry.sinogram_shape}"
            )
        if chunk_slices is not None and memory_budget_bytes is not None:
            raise ValueError("pass either chunk_slices or memory_budget_bytes, not both")
        if prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {prefetch}")

        if stages is None:
            stages = default_stages(darks, flats) if darks is not None else []

        manager = None
        if checkpoint is not None:
            manager = (
                checkpoint
                if isinstance(checkpoint, CheckpointManager)
                else CheckpointManager(checkpoint, every=1)
            )
        if resume and manager is None:
            raise ValueError("resume=True requires a checkpoint")

        cleanup.enter_context(span("pipeline.run", slices=num_slices, solver=solver))
        if operator is None:
            operator, report = preprocess(
                geometry, config=config, ordering=ordering, cache=cache
            )
        else:
            report = PreprocessReport()
        n = geometry.num_channels
        if sink is None:
            sink = VolumeSink(num_slices, n)
        elif not isinstance(sink, ChunkSink):
            sink = make_sink(sink, num_slices, n, resume=resume,
                             compress=compress)
        cleanup.callback(sink.close)
        in_memory = isinstance(sink, VolumeSink)

        if chunk_slices is None:
            if memory_budget_bytes is not None:
                chunk_slices = chunk_slices_for_budget(
                    memory_budget_bytes,
                    operator.num_rays,
                    operator.num_pixels,
                    num_slices,
                    itemsize=solver_dtype(operator).itemsize,
                    volume_in_memory=in_memory,
                    prefetch=prefetch,
                )
            else:
                chunk_slices = num_slices
        if chunk_slices < 1:
            raise ValueError(f"chunk_slices must be >= 1, got {chunk_slices}")

        fingerprint = _stack_fingerprint(
            source,
            solver,
            iterations,
            tolerance,
            str(solver_dtype(operator)),
            stages,
            solver_kwargs,
        )
        ctx = StageContext(angles=geometry.angles())
        extra: dict = {}
        done = np.zeros(num_slices, dtype=bool)
        if resume:
            done = _resume(manager.require(), fingerprint, sink, ctx)
            add_count(PIPELINE_RESUMED_SLICES, int(done.sum()))
            extra["resumed_slices"] = int(done.sum())

        def save_checkpoint() -> None:
            if manager is None:
                return
            scalars = {}
            if "center_shift" in ctx.info:
                scalars["center_shift"] = float(ctx.info["center_shift"])
            arrays = {"done": done.astype(np.uint8), "fingerprint": fingerprint}
            if in_memory:
                arrays["volume"] = sink.volume
            manager.save(
                SolverCheckpoint(
                    solver=_CHECKPOINT_SOLVER,
                    iteration=int(done.sum()),
                    arrays=arrays,
                    scalars=scalars,
                )
            )

        # Plan the chunk ranges up front: completed (resumed) chunks are
        # dropped before the reader ever sees them, and max_chunks
        # truncates the plan so a "kill" run never reads ahead of what
        # it will solve.
        all_ranges = [
            (start, min(start + chunk_slices, num_slices))
            for start in range(0, num_slices, chunk_slices)
        ]
        pending = [(a, b) for a, b in all_ranges if not done[a:b].all()]
        stopped_early = max_chunks is not None and len(pending) > max_chunks
        if stopped_early:
            pending = pending[:max_chunks]

        reporter = None
        if progress is True:
            reporter = ConveyorProgress(num_slices, initial_done=int(done.sum()))
        elif progress:
            reporter = progress

        chunk_records: list[dict] = []
        solve_seconds = 0.0

        with span("pipeline.start", prefetch=prefetch):
            conveyor = Conveyor(source, pending, sink, prefetch=prefetch)
        with conveyor:
            for start, stop, chunk in conveyor.chunks():
                with span("pipeline.chunk", start=start, stop=stop):
                    ctx.info["slice_offset"] = start
                    for stage in stages:
                        chunk = stage(chunk, ctx)

                    # Right-hand sides go straight to the operator's solve
                    # precision: stacking to float64 first would silently
                    # double the chunk's memory on the fp32 path.
                    work = solver_dtype(operator)
                    Y = np.stack(
                        [operator.sinogram_to_ordered(chunk[k])
                         for k in range(chunk.shape[0])],
                        axis=1,
                    ).astype(work)
                    Y = clip_counts(row, Y, work)

                    t0 = time.perf_counter()
                    with span("pipeline.solve", solver=solver, batch=Y.shape[1]):
                        # Read at call time: the slab entry stays this
                        # module's attribute (wrappable, e.g. by a tracer).
                        result = globals()[row.batch](
                            operator, Y, num_iterations=iterations,
                            tolerance=tolerance, **solver_kwargs,
                        )
                    chunk_seconds = time.perf_counter() - t0
                    solve_seconds += chunk_seconds

                    slab = np.stack(
                        [
                            operator.ordered_to_image(np.ascontiguousarray(result.X[:, k]))
                            for k in range(stop - start)
                        ]
                    )
                    conveyor.put(start, stop, slab)
                    # Only sink-confirmed slabs may enter the done mask:
                    # a slab parked in the write queue is lost on a
                    # crash, and resume must re-solve it.
                    for a, b in conveyor.take_written():
                        done[a:b] = True
                    add_count(PIPELINE_CHUNKS, 1)
                    add_count(PIPELINE_SLICES, stop - start)
                    chunk_records.append(
                        {
                            "start": start,
                            "stop": stop,
                            "seconds": chunk_seconds,
                            "iterations": result.iterations.tolist(),
                        }
                    )
                    save_checkpoint()
                    if reporter is not None:
                        reporter.update(int(done.sum()), conveyor.backlog)
            with span("pipeline.drain"):
                conveyor.finish()
        written = conveyor.take_written()
        for a, b in written:
            done[a:b] = True
        if written:
            # The in-flight slabs are durable now; record the final mask.
            save_checkpoint()
        if done.all():
            with span("pipeline.finalize"):
                output_path = sink.finalize()
            if output_path is not None:
                extra["output_path"] = str(output_path)
        if reporter is not None:
            reporter.done()

    stage_times = dict(ctx.stage_times)
    extra["stage_times"] = {**stage_times, "solve": solve_seconds}
    if "center_shift" in ctx.info:
        extra["center_shift"] = ctx.info["center_shift"]
    if manager is not None and manager.path is not None:
        extra["checkpoint_path"] = str(manager.path)
    if stopped_early:
        extra["stopped_early"] = True
        extra["remaining_slices"] = int((~done).sum())

    return StackResult(
        volume=sink.volume if in_memory else None,
        operator=operator,
        preprocess_report=report,
        solver=solver,
        chunks=chunk_records,
        stage_times=stage_times,
        solve_seconds=solve_seconds,
        total_seconds=time.perf_counter() - t_start,
        total_slices=num_slices,
        extra=extra,
    )
