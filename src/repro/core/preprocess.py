"""The MemXCT preprocessing pipeline (paper Section 3.5).

Four steps, each timed:

1. **Hilbert ordering and domain decomposition** — build the two-level
   pseudo-Hilbert orderings of both domains;
2. **ray tracing** — construct the forward-projection matrix, traced
   in the ordered coordinates of step 1 (on a half-turn parallel scan
   only its traced rows ``Q``, which every plan keeps as they are);
3. **sparse transposition** — the traced matrix in our dtypes and,
   for the buffered and ELL kernels on a plan of ``A``, the scan-based,
   order-preserving transpose their backprojection layouts are built
   from (the csr adjoint runs over the plan itself and needs none);
4. **row partitioning and buffer construction** — the multi-stage
   buffer data structures for both directions.  A plan of ``Q`` builds
   none: on a scan with an 8-slot ray group every kernel runs the orbit
   SpMM over ``Q``, which streams about 1/8 of ``A``'s bytes.

Preprocessing is paid once per scan geometry; its product (the
operator) is reused across all slices of a 3D dataset (paper Table 5's
"All Slices" argument).  With ``cache="auto"`` (or a cache directory /
:class:`repro.cache.PlanCache`), that reuse extends across processes:
the finished plan is stored content-addressed on disk, and a later
``preprocess`` call with identical inputs loads it back and skips all
four stages.  The cold call builds the plan *in* that entry — step 2
writes ``A`` (or ``Q``) into pages of the entry's archive, the store
seals it — and returns the entry loaded, so cold and warm calls hand
out the same read-only mapped operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import ScanGeometry
from ..obs import span
from ..ordering import make_ordering
from ..parallel.backend import make_backend, parse_workers
from ..sparse import (
    CSRMatrix,
    OrbitMatrix,
    build_buffered,
    build_ell,
    orbit_group,
    scan_transpose,
)
from ..trace import build_projection_matrix
from ..trace.matrix_builder import _traced_views
from .operator import MemXCTOperator, OperatorConfig

__all__ = ["PreprocessReport", "preprocess"]


@dataclass
class PreprocessReport:
    """Wall-clock seconds of each preprocessing step.

    ``cache_hit`` is True when the operator came from the plan cache —
    all stage timings are then zero because no stage ran.  ``cache_key``
    is the plan fingerprint whenever a cache was consulted.
    """

    ordering_seconds: float = 0.0
    tracing_seconds: float = 0.0
    transpose_seconds: float = 0.0
    partitioning_seconds: float = 0.0
    cache_hit: bool = False
    cache_key: str | None = None

    @property
    def total_seconds(self) -> float:
        return (
            self.ordering_seconds
            + self.tracing_seconds
            + self.transpose_seconds
            + self.partitioning_seconds
        )


def preprocess(
    geometry: ScanGeometry,
    config: OperatorConfig | None = None,
    ordering: str = "pseudo-hilbert",
    min_tiles: int = 16,
    tile_size: int | None = None,
    cache=None,
) -> tuple[MemXCTOperator, PreprocessReport]:
    """Run the four-step preprocessing and return the operator.

    Parameters
    ----------
    geometry:
        Scan geometry to memoize.
    config:
        Kernel configuration (``OperatorConfig()`` by default: the CSR
        kernel on the ordered matrix, no further layout built).
    ordering:
        Domain-ordering scheme for both domains (``"row-major"``,
        ``"morton"``, ``"hilbert"``, ``"pseudo-hilbert"``).
    min_tiles, tile_size:
        Two-level ordering granularity (see
        :func:`repro.ordering.pseudo_hilbert_order`).
    cache:
        Plan-cache selector: ``None``/``"off"`` (default) disables
        caching, ``"auto"`` uses the default cache directory
        (``REPRO_CACHE_DIR`` or ``~/.cache/repro/plans``), a path
        string / ``Path`` selects an explicit directory, and a
        :class:`repro.cache.PlanCache` is used as-is.  On a hit the
        finished plan is loaded and **all four stages are skipped**
        (``report.cache_hit``); on a miss the stages run, the plan is
        stored for the next process, and the operator returned is that
        entry, loaded as a hit would load it.

    The tracer is handed both orderings' rank arrays, so the matrix it
    assembles is already the ordered ``A`` (or, on a scan with an
    8-slot ray group, the plan's ``Q``, whatever the kernel); the
    transposition stage converts it to our dtypes.  On a plan of ``A``
    a buffered or ELL kernel also scans out the ``A^T`` its adjoint
    layout is built from, then drops it.  A plan of ``Q`` builds no
    layout for any kernel: all three run the orbit SpMM.  The worker spec in
    ``config.workers`` (or ``REPRO_WORKERS``) also parallelizes the
    tracing stage here: per-view Siddon tracing fans out across the
    backend, with chunks reassembled in view order so the traced
    matrix is bit-identical to a serial build.  The cache fingerprint excludes the worker spec —
    plans are shared across worker counts.
    """
    # Imported lazily: repro.cache depends on repro.io which imports
    # repro.core — a module-level import here would close that cycle.
    from ..cache import PlanCache, plan_fingerprint

    config = config or OperatorConfig()
    report = PreprocessReport()

    plan_cache = PlanCache.resolve(cache)
    if plan_cache is not None:
        key = plan_fingerprint(geometry, config, ordering, min_tiles, tile_size)
        report.cache_key = key
        operator = plan_cache.load(key)
        if operator is not None:
            if config.workers is not None:
                # Plans persist no worker spec (it never changes the
                # numbers); re-apply the requested backend to the
                # loaded operator.
                operator.set_workers(config.workers)
            report.cache_hit = True
            return operator, report

    # With a cache the ordered matrix is assembled inside the entry's
    # own archive, not beside it.
    archive = None
    try:
        with span(
            "preprocess",
            angles=geometry.num_angles,
            channels=geometry.num_channels,
            kernel=config.kernel,
        ):
            with span("preprocess.ordering", scheme=ordering) as sp:
                # The orderings only need a bijection over flat indices,
                # so each domain is ordered over the rectangle its
                # geometry names (for a 2D scan, the array shapes
                # themselves).
                tomo_ordering = make_ordering(
                    ordering,
                    *geometry.tomo_layout_shape,
                    tile_size=tile_size,
                    min_tiles=min_tiles,
                )
                sino_ordering = make_ordering(
                    ordering,
                    *geometry.sino_layout_shape,
                    tile_size=tile_size,
                    min_tiles=min_tiles,
                )
            report.ordering_seconds = sp.duration

            value_dtype = config.dtype or "float32"
            # A plan on a scan with an 8-slot ray group is ``Q``, and
            # every kernel runs the orbit SpMM over it: only a plan of
            # ``A`` builds a buffered or ELL layout.
            group = orbit_group(geometry)
            layouts = config.kernel != "csr" and group is None
            if plan_cache is not None:
                archive = plan_cache.reserve(
                    report.cache_key, geometry, tomo_ordering, sino_ordering, value_dtype
                )

            workers, mode = parse_workers(config.workers)
            views = {"views": geometry.num_angles, "views_traced": len(_traced_views(geometry))}
            with span("preprocess.tracing", workers=workers, mode=mode, **views) as sp:
                backend = make_backend(workers, mode)
                try:
                    raw = build_projection_matrix(
                        geometry,
                        backend=backend,
                        row_rank=sino_ordering.rank,
                        col_rank=tomo_ordering.rank,
                        out=archive and archive.reserve_matrix,
                        expand=group is None,
                    )
                finally:
                    backend.close()
            report.tracing_seconds = sp.duration

            with span("preprocess.transpose") as sp:
                matrix = CSRMatrix.from_scipy(raw, dtype=value_dtype)
                if group is not None:
                    matrix = OrbitMatrix.from_group(
                        matrix, group, tomo_ordering.rank, sino_ordering.perm
                    )
                transpose = scan_transpose(matrix) if layouts else None
            report.transpose_seconds = sp.duration

            with span("preprocess.partitioning", kernel=config.kernel) as sp:
                buffered_forward = buffered_adjoint = None
                ell_forward = ell_adjoint = None
                if layouts and config.kernel == "buffered":
                    buffered_forward = build_buffered(
                        matrix, config.partition_size, config.buffer_bytes
                    )
                    buffered_adjoint = build_buffered(
                        transpose, config.partition_size, config.buffer_bytes
                    )
                elif layouts:
                    ell_forward = build_ell(matrix, config.partition_size)
                    ell_adjoint = build_ell(transpose, config.partition_size)
                del raw, transpose  # gone before the store: only the plan stays
            report.partitioning_seconds = sp.duration

        operator = MemXCTOperator(
            geometry=geometry,
            tomo_ordering=tomo_ordering,
            sino_ordering=sino_ordering,
            matrix=matrix,
            transpose=None,
            config=config,
            buffered_forward=buffered_forward,
            buffered_adjoint=buffered_adjoint,
            ell_forward=ell_forward,
            ell_adjoint=ell_adjoint,
        )
        if plan_cache is not None:
            # What comes back is the entry, loaded: the operator a warm
            # call returns (and, like it, without a persisted worker spec).
            operator = plan_cache.store(
                report.cache_key,
                operator,
                extra_meta={
                    "ordering": ordering,
                    "min_tiles": min_tiles,
                    "tile_size": tile_size,
                    "preprocess_seconds": report.total_seconds,
                },
                archive=archive,
            )
            if config.workers is not None:
                operator.set_workers(config.workers)
    finally:
        if archive is not None:
            archive.close()
    return operator, report

