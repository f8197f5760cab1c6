"""The memory-centric MemXCT operator.

Bundles everything the paper's Section 3 builds during preprocessing:
the memoized projection matrix in ordered coordinates and, when a
caller hands them in, the multi-stage buffered or ELL layouts of both
directions (the paper's Listing 3 and GPU kernels), which run serially
whatever ``workers`` says.  ``preprocess`` and ``load_operator`` hand
in none: a plan runs csr, or the orbit SpMM below.
``forward``/``adjoint`` dispatch to the selected kernel.  The paper
materializes ``A^T`` so that parallel backprojection is a pure gather,
free of scatter races; on one core there is no race, so the csr
adjoint is a serial CSC scatter over ``A``'s own arrays, and the scan
transpose is materialized only where work is partitioned by pixel
rows (see :attr:`MemXCTOperator.transpose`).

On a scan whose ray group has 8 slots (a half-turn parallel scan, even
``M``) the plan is an :class:`~repro.sparse.OrbitMatrix`: it holds only
the traced rows ``Q``, and the operator runs both directions as
8-column SpMMs over them; it takes no layout beside it.  ``A`` itself
(:attr:`MemXCTOperator.matrix`) is then a memo expanded from ``Q`` on
first read, like the transpose.

Vectors handled by the operator live in *ordered* coordinates (tomogram
curve order / sinogram curve order); the image-space helpers translate
to and from row-major 2D arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ..geometry import ScanGeometry
from ..obs import (
    BUFFER_STAGES,
    DTYPE_FP32_SPMV,
    DTYPE_FP64_SPMV,
    REGISTRY,
    SPMV_CALLS,
    SPMV_FLOPS,
    SPMV_IRREGULAR_BYTES,
    SPMV_REGULAR_BYTES,
    add_count,
    span,
)
from ..ordering import DomainOrdering
from ..parallel.backend import parse_workers
from ..precision import ambient_dtype
from ..precision import compute_dtype as _compute_dtype_for
from ..precision import parse_dtype
from ..sparse import (
    BufferedMatrix,
    CSRMatrix,
    ELLPartitioned,
    OrbitMatrix,
    scan_transpose,
    validate_buffer_bytes,
)

__all__ = ["MemXCTOperator", "OperatorConfig", "KERNELS"]

KERNELS = ("csr", "buffered", "ell")


@dataclass(frozen=True)
class OperatorConfig:
    """Kernel/layout configuration of a :class:`MemXCTOperator`.

    Attributes
    ----------
    kernel:
        ``"csr"`` (default; Listing 2 on the ordered matrix),
        ``"buffered"`` (Listing 3) or ``"ell"`` (GPU-style
        partition-padded layout).  It picks which pair of layouts
        handed to the constructor runs; an operator handed none runs
        csr (or the orbit SpMM on a plan of ``Q``) whatever it names.
        ``preprocess`` and ``load_operator`` hand in none, so the
        kernel changes neither the plan nor its cache key.
    partition_size:
        Rows per partition; the paper's tuned KNL value is 128.
    buffer_bytes:
        Input-buffer capacity a caller building a buffered layout
        sizes it with (<= 256 KB); no plan reads it.
    workers:
        Parallel-execution spec: a count (``4``), a mode
        (``"thread"``/``"serial"``/``"auto"``) or ``"mode:count"``;
        ``None`` defers to the ``REPRO_WORKERS`` environment variable.
        Two or more workers partition SpMV on a shared thread pool and
        fan out tracing.  Purely an execution knob — it never
        changes numerics, and it is excluded from plan-cache
        fingerprints and persisted operators.
    dtype:
        Compute precision. ``None`` (default) defers to the
        ``REPRO_DTYPE`` environment variable, else keeps the
        historical mixed precision: float32 matrix values and kernels,
        float64 solver state.  ``"float32"`` is the end-to-end single-precision
        path (solver state included); ``"float64"`` the full
        double-precision reference path (matrix values stored float64).
        Folded into plan-cache fingerprints when set, so fp32 and fp64
        plans never collide.
    """

    kernel: str = "csr"
    partition_size: int = 128
    buffer_bytes: int = 32 * 1024
    workers: int | str | None = None
    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS}")
        # Layout sizes index arrays: a float (or bool) would pass the
        # range checks, trace the whole matrix, then fail in numpy — and
        # fingerprint as its int() twin.  numpy integers become int.
        for name in ("partition_size", "buffer_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.partition_size < 1:
            raise ValueError(
                f"partition_size must be >= 1, got {self.partition_size}"
            )
        if self.buffer_bytes <= 0:
            raise ValueError(f"buffer_bytes must be > 0, got {self.buffer_bytes}")
        # Fail the 256 KB uint16-addressing cap here rather than inside
        # build_buffered, which would only run after tracing completed.
        validate_buffer_bytes(self.buffer_bytes)
        # Reject malformed worker specs at config construction too
        # (env resolution is deferred to operator use).
        if self.workers is not None:
            parse_workers(self.workers)
        # Normalize dtype aliases once; everything downstream sees only
        # None / "float32" / "float64" (frozen dataclass -> object.__setattr__).
        # An unset dtype defers to REPRO_DTYPE, mirroring workers.
        object.__setattr__(
            self, "dtype", parse_dtype(self.dtype) or ambient_dtype()
        )

    def evolve(self, **changes) -> "OperatorConfig":
        """``dataclasses.replace`` for a config whose precision is decided.

        ``replace`` re-runs ``__post_init__``, where ``dtype=None`` asks
        ``REPRO_DTYPE`` again; on a built or loaded operator ``None``
        already *means* mixed precision.  The dtype here is the one in
        ``changes`` if named, else this config's, never the ambient one.
        """
        config = replace(self, **changes)
        object.__setattr__(
            config, "dtype", parse_dtype(changes.get("dtype", self.dtype))
        )
        return config


class MemXCTOperator:
    """Memoized forward/backprojection with ordered domains.

    Build via :func:`repro.core.preprocess.preprocess` rather than
    directly — preprocessing performs (and times) the paper's steps in
    order.  Buffered / ELL layouts run only when handed in here, only
    beside a plan of ``A``, and always serially.
    """

    def __init__(
        self,
        geometry: ScanGeometry,
        tomo_ordering: DomainOrdering,
        sino_ordering: DomainOrdering,
        matrix: CSRMatrix | OrbitMatrix,
        transpose: CSRMatrix | None,
        config: OperatorConfig,
        buffered_forward: BufferedMatrix | None = None,
        buffered_adjoint: BufferedMatrix | None = None,
        ell_forward: ELLPartitioned | None = None,
        ell_adjoint: ELLPartitioned | None = None,
    ):
        self.geometry = geometry
        self.tomo_ordering = tomo_ordering
        self.sino_ordering = sino_ordering
        # The plan's form of ``A``: the ordered CSR matrix, or an orbit
        # layout whose expanded ``A`` is derived on first read.
        self.plan = matrix
        self._orbit = isinstance(matrix, OrbitMatrix)
        if self._orbit and any(
            layout is not None
            for layout in (buffered_forward, buffered_adjoint, ell_forward, ell_adjoint)
        ):
            raise ValueError("an orbit plan runs the orbit SpMM: it takes no layouts")
        self._matrix = None if self._orbit else matrix
        # ``A^T`` as its own CSR matrix, derived on first use (a held
        # one may be handed in); close() drops it.
        self._transpose = transpose
        self.config = config
        self.buffered_forward = buffered_forward
        self.buffered_adjoint = buffered_adjoint
        self.ell_forward = ell_forward
        self.ell_adjoint = ell_adjoint
        # The one place the configured kernel picks its layouts: the
        # (forward, adjoint) pair every kernel call and the parallel
        # engine run on.  A kernel whose layouts were not handed in runs
        # as csr, whose adjoint (``None`` here) is the transposed
        # product over the plan itself.
        forward, adjoint = {
            "csr": (matrix, None),
            "buffered": (buffered_forward, buffered_adjoint),
            "ell": (ell_forward, ell_adjoint),
        }[config.kernel]
        if forward is None or adjoint is None:
            forward, adjoint = matrix, None
        self._layouts = {"forward": forward, "adjoint": adjoint}
        # buffer.stages is counted only when the staged kernel runs.
        self._staged = forward is buffered_forward
        # Row-subset operators (SGD minibatches) keyed by the row-set
        # bytes; bounded so adversarial row sampling cannot grow it
        # without limit.
        self._subset_cache: dict[bytes, CSRMatrix] = {}
        # The rank decomposition a distributed ``reconstruct`` last cut:
        # at most one entry, keyed by both decompositions' bounds bytes
        # and holding its list[RankData] (~8 B per nonzero of the plan,
        # ``Q`` or ``A``) with any row sums filled into it.  close() drops it.
        self._rank_data: dict[tuple[bytes, bytes], list] = {}
        # Parallel SpMV engine, resolved lazily on first kernel call so
        # loading an operator stays cheap and env resolution happens at
        # use time.
        self._engine = None
        self._engine_resolved = False

    # -- parallel execution ---------------------------------------------

    def _active_engine(self):
        """The parallel engine, or None for serial execution.

        Any spec of two or more workers partitions SpMV on the shared
        thread pool, and only on the plan's CSR pair; a handed-in
        buffered or ELL pair runs serially.
        """
        if not self._engine_resolved:
            self._engine_resolved = True
            workers, _ = parse_workers(self.config.workers)
            if workers >= 2 and self._layouts["adjoint"] is None:
                from ..parallel import ParallelSpmvEngine

                # Workers own output rows: the adjoint partitions the
                # transpose's pixel rows — of ``Q`` on an orbit plan,
                # whose gathers stay here.
                forward = self.stored
                adjoint = scan_transpose(forward) if self._orbit else self.transpose
                self._engine = ParallelSpmvEngine(
                    workers=workers,
                    partition_size=self.config.partition_size,
                    forward_layout=forward,
                    adjoint_layout=adjoint,
                )
        return self._engine

    def set_workers(self, workers: int | str | None) -> None:
        """Re-point the operator at a different execution backend.

        Used after loading a cached/persisted operator (worker spec is
        deliberately not part of the persisted plan).  Tears down any
        existing engine first; a memoized rank decomposition stays.
        """
        self._close_engine()
        self.config = self.config.evolve(workers=workers)

    def close(self) -> None:
        """Release the parallel engine, the memoized rank decomposition
        and the derived ``A`` (of an orbit plan) and transpose;
        idempotent.

        The operator remains fully usable afterwards — the next kernel
        call re-resolves the backend from ``config.workers`` and the
        next distributed ``reconstruct`` cuts its ranks again.
        """
        self._rank_data.clear()
        self._transpose = None
        if self._orbit:
            self._matrix = None
        self._close_engine()

    def _close_engine(self) -> None:
        engine, self._engine = self._engine, None
        self._engine_resolved = False
        if engine is not None:
            engine.close()

    @property
    def matrix(self) -> CSRMatrix:
        """``A``, the ordered CSR matrix: the plan itself, or an orbit
        plan's expansion, built at first read and held until
        :meth:`close`.  No kernel reads it, nor does the distributed
        rank cut (it cuts from the plan); ICD and SGD's row subsets do."""
        if self._matrix is None:
            self._matrix = self.plan.expand()
        return self._matrix

    @property
    def stored(self) -> CSRMatrix:
        """The CSR matrix the plan persists: ``A``, or an orbit plan's ``Q``."""
        return self.plan.stored if self._orbit else self.plan

    @property
    def nnz(self) -> int:
        """Nonzeros of ``A``, read from the plan without expanding it."""
        return self.plan.nnz

    @property
    def transpose(self) -> CSRMatrix:
        """``A^T`` as a CSR matrix: the scan transpose of ``matrix``.

        Derived state, built at first use and held until :meth:`close`.
        No kernel of a serial solve reads it; only work partitioned by
        pixel rows does (the parallel engine's csr adjoint, the
        distributed rank blocks of a plan of ``A``, ICD's column sweeps).
        An orbit plan's rank blocks are cut from ``Q`` without it.
        """
        if self._transpose is None:
            self._transpose = scan_transpose(self.matrix)
        return self._transpose

    # -- protocol ------------------------------------------------------

    @property
    def num_rays(self) -> int:
        return self.plan.num_rows

    @property
    def num_pixels(self) -> int:
        return self.plan.num_cols

    @property
    def compute_dtype(self) -> np.dtype:
        """Kernel dtype: float64 only on the opt-in fp64 path."""
        return _compute_dtype_for(self.config.dtype)

    @property
    def solve_dtype(self) -> np.dtype:
        """Solver-state dtype advertised to the iterative solvers.

        ``None`` (mixed) and ``"float64"`` keep the historical float64
        state; ``"float32"`` drops the state to single precision for
        the end-to-end fp32 path.
        """
        return np.dtype(
            np.float32 if self.config.dtype == "float32" else np.float64
        )

    def _apply(self, direction: str, v: np.ndarray) -> np.ndarray:
        """Run the ``direction`` kernel on a vector or an ``(n, S)`` slab."""
        v = np.asarray(v, dtype=self.compute_dtype)
        if not REGISTRY.active:  # hot path: one attribute check
            return self._kernel(direction, v)
        attrs = {"batch": v.shape[1]} if v.ndim == 2 else {}
        with span(f"spmv.{direction}", kernel=self.config.kernel, **attrs):
            out = self._kernel(direction, v)
        self._count_spmv(direction, **attrs)
        return out

    def _kernel(self, direction: str, v: np.ndarray) -> np.ndarray:
        engine = self._active_engine()
        if engine is None:
            layout = self._layouts[direction]
            return self.plan.spmv_transposed(v) if layout is None else layout.spmv(v)
        if not self._orbit:
            return engine.apply(direction, v)
        if direction == "forward":
            return self.plan.pick_rays(engine.apply(direction, self.plan.spread_pixels(v)), v)
        return self.plan.fold_pixels(engine.apply(direction, self.plan.spread_rays(v)), v)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward projection ``y = A x`` in ordered coordinates.

        ``x`` is a pixel vector or an ``(pixels, S)`` slab of ``S``
        slices: one cached operator drives them all, reading the
        regular matrix streams once per call instead of once per
        slice.  Column ``j`` of a slab result is bit-identical to
        ``forward(x[:, j])``.
        """
        return self._apply("forward", x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Backprojection ``x = A^T y`` of a ray vector or ``(rays, S)`` slab."""
        return self._apply("adjoint", y)

    # The slab-protocol names the solver driver looks for; the kernels
    # are rank-generic, so they are the same code.
    forward_batch = forward
    adjoint_batch = adjoint

    def _count_spmv(self, direction: str, batch: int = 1) -> None:
        """Account one kernel application on the active captures.

        A slab application counts as ``batch`` logical SpMVs for
        FLOPs and irregular (vector) traffic, but the regular matrix
        streams are charged **once** — that amortization is exactly
        what a multi-RHS kernel call buys.
        """
        nnz = self.nnz
        footprint = self.memory_footprint()
        add_count(SPMV_CALLS, batch)
        add_count(
            DTYPE_FP64_SPMV if self.compute_dtype == np.float64 else DTYPE_FP32_SPMV,
            batch,
        )
        add_count(SPMV_FLOPS, 2 * nnz * batch)
        add_count(SPMV_REGULAR_BYTES, footprint[f"regular_{direction}"])
        add_count(SPMV_IRREGULAR_BYTES, batch * footprint[f"irregular_{direction}"])
        if self._staged:
            add_count(BUFFER_STAGES, self._layouts[direction].num_stages)

    def row_sums(self) -> np.ndarray:
        return self.plan.row_sums()

    def col_sums(self) -> np.ndarray:
        return self.plan.col_sums()

    #: Maximum number of memoized row-subset operators (FIFO eviction).
    _SUBSET_CACHE_CAPACITY = 128

    def _subset_operators(self, rows: np.ndarray) -> CSRMatrix:
        """Memoized submatrix of a row subset; it runs both directions.

        SGD revisits the same minibatch row-sets every epoch; rebuilding
        the permuted submatrix per step costs more than the SpMV
        itself, so it is cached per row-set.
        """
        rows = np.asarray(rows, dtype=np.int64)
        key = rows.tobytes()
        sub = self._subset_cache.get(key)
        if sub is None:
            sub = self.matrix.permute(rows, None)
            if len(self._subset_cache) >= self._SUBSET_CACHE_CAPACITY:
                self._subset_cache.pop(next(iter(self._subset_cache)))
            self._subset_cache[key] = sub
        return sub

    def row_subset_forward(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Partial forward projection over a row subset (SGD support)."""
        sub = self._subset_operators(rows)
        return sub.spmv(np.asarray(x, dtype=self.compute_dtype))

    def row_subset_adjoint(self, y_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Partial backprojection of values on a row subset (SGD support)."""
        sub = self._subset_operators(rows)
        return sub.spmv_transposed(np.asarray(y_rows, dtype=self.compute_dtype))

    # -- image-space helpers --------------------------------------------

    # The ordering bijections are flat, so ``to_ordered`` takes an array
    # of any shape; the inverse direction reshapes to the geometry's own
    # array shapes — ``(M, N)`` / ``(N, N)`` for a planar scan,
    # ``(M, det_rows, det_cols)`` / ``(nz, n, n)`` for cone-beam.

    def sinogram_to_ordered(self, sinogram: np.ndarray) -> np.ndarray:
        """Row-major measurement array -> ordered measurement vector."""
        return self.sino_ordering.to_ordered(sinogram)

    def ordered_to_sinogram(self, y: np.ndarray) -> np.ndarray:
        """Ordered measurement vector -> ``geometry.sinogram_shape`` array."""
        return self.sino_ordering.from_ordered(y).reshape(self.geometry.sinogram_shape)

    def image_to_ordered(self, image: np.ndarray) -> np.ndarray:
        """Row-major tomogram (or volume) -> ordered pixel vector."""
        return self.tomo_ordering.to_ordered(image)

    def ordered_to_image(self, x: np.ndarray) -> np.ndarray:
        """Ordered pixel vector -> ``geometry.volume_shape`` array."""
        return self.tomo_ordering.from_ordered(x).reshape(self.geometry.volume_shape)

    def project_image(self, image: np.ndarray) -> np.ndarray:
        """Forward-project an image (volume), returning a sinogram (stack)."""
        y = self.forward(self.image_to_ordered(image))
        return self.ordered_to_sinogram(y)

    def backproject_sinogram(self, sinogram: np.ndarray) -> np.ndarray:
        """Backproject a sinogram (stack), returning an image (volume)."""
        x = self.adjoint(self.sinogram_to_ordered(sinogram))
        return self.ordered_to_image(x)

    # The 3D (cone-beam) spellings of the same six helpers.
    volume_to_ordered = image_to_ordered
    ordered_to_volume = ordered_to_image
    projections_to_ordered = sinogram_to_ordered
    ordered_to_projections = ordered_to_sinogram
    project_volume = project_image
    backproject_projections = backproject_sinogram

    # -- accounting ------------------------------------------------------

    def memory_footprint(self) -> dict[str, int]:
        """Byte counts matching the paper's Table 3 categories.

        *Irregular data* is what the irregular gathers touch: the
        tomogram vector (forward) and the sinogram vector
        (backprojection).  *Regular data* is the streamed matrix
        storage of each direction.

        These are the paper kernel's *modelled* streams — the buffered
        kernel of Listing 3 reads a 2 B buffer-local index per nonzero.
        The executed kernel is a CSR loop over 4 B column indices on csr
        and buffered alike (scipy's, or on an orbit plan's slabs the
        compiled row loops of :mod:`repro.sparse.native`), so
        ``spmv.regular_bytes`` on a running buffered layout undercounts
        the executed index stream by 2 B/nnz.  Only handed-in layouts
        are charged as layouts: an operator from ``preprocess`` or
        ``load_operator`` is charged the csr or orbit kernel's 4 B,
        whatever its config names.

        The orbit kernel streams ``Q`` once per call for all 8 slots, and
        its irregular gathers are the ``8 x pixels`` input spread and
        the ``8 x Q rows`` output pick (forward), or their mirror images
        (adjoint).
        """
        # The orbit kernel streams ``Q``; every other kernel streams ``A``.
        stored = self.stored
        nnz, rows = (
            (stored.nnz, stored.num_rows) if self._orbit else (self.nnz, self.num_rays)
        )
        per_index = 2 if self._staged else 4
        per_value = stored.val.dtype.itemsize
        per_vector = self.compute_dtype.itemsize
        regular_each = nnz * (per_value + per_index)
        irregular = (self.num_pixels * per_vector, self.num_rays * per_vector)
        if self._orbit:
            gathered = self.plan.slots * (self.num_pixels + rows)
            irregular = (gathered * per_vector,) * 2
        # The csr adjoint streams the stored matrix's own row offsets again.
        csr_adjoint = self._layouts["adjoint"] is None
        adjoint_rows = rows if csr_adjoint else self.num_pixels
        return {
            "irregular_forward": irregular[0],
            "irregular_adjoint": irregular[1],
            "regular_forward": regular_each,
            "regular_adjoint": regular_each,
            "displ_bytes": 8 * (rows + adjoint_rows + 2),
        }
