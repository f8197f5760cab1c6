"""High-level reconstruction API.

``reconstruct`` is the one-call entry point a downstream user needs:
sinogram in, tomogram out, with the solver, ordering, kernel and
(simulated) rank count as knobs.  It wires together preprocessing, the
domain-order transforms, the chosen iterative solver, and — when
``num_ranks > 1`` — the distributed operator, and reports timing plus
convergence history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..dist import DistributedOperator, SimComm, decompose_both
from ..topology import HierComm, Topology, parse_topology
from ..geometry import ParallelBeamGeometry
from ..obs import span
from ..resilience import CheckpointManager, FaultConfig, FaultInjector, HealthMonitor
from ..precision import solver_dtype
from ..solvers import SolveResult
from ..solvers.table import SolverRow, clip_counts, solver_row
from ..solvers import cgls, fbp, icd, mlem, regularized_cgls, sgd, sirt, tv_cgls  # row entries
from .operator import MemXCTOperator, OperatorConfig
from .preprocess import PreprocessReport, preprocess

__all__ = ["ReconstructionResult", "reconstruct"]


@dataclass
class ReconstructionResult:
    """Everything produced by one reconstruction."""

    image: np.ndarray
    solve: SolveResult
    preprocess_report: PreprocessReport
    operator: MemXCTOperator
    solve_seconds: float
    solver: str
    num_ranks: int = 1
    extra: dict = field(default_factory=dict)

    @property
    def per_iteration_seconds(self) -> float:
        return self.solve_seconds / max(self.solve.iterations, 1)


def run_solver(
    row: SolverRow,
    operator: MemXCTOperator,
    y: np.ndarray,
    iterations: int,
    solve_op=None,
    **solver_kwargs,
) -> SolveResult:
    """One solve of ``row`` on ordered ``y`` — the single-solve dispatch
    of :func:`reconstruct` and :func:`repro.scenarios.reconstruct_scenario`.

    ``solve_op`` (default ``operator``) is what the iterations run on;
    the entry is this module's attribute named by the row, read at call
    time.  ICD reads the ordered ``A`` and its transpose (both derived
    on an orbit plan); FBP is the one-shot direct solve (``iterations``
    is ignored).
    """
    solve_op = operator if solve_op is None else solve_op
    y = clip_counts(row, y, solver_dtype(solve_op))
    if row.name == "icd":
        return icd(operator.matrix, operator.transpose, y, num_sweeps=iterations,
                   **solver_kwargs)
    if row.name == "fbp":
        x = operator.image_to_ordered(
            fbp(operator, operator.ordered_to_sinogram(y), **solver_kwargs)
        )
        residual = np.asarray(operator.forward(x), dtype=np.float64) - y
        return SolveResult(
            x=x, iterations=1, residual_norms=[float(np.linalg.norm(residual))],
            solution_norms=[float(np.linalg.norm(x))], stop_reason="direct solve",
        )
    if row.entry == "regularized_cgls":
        solver_kwargs["regularizer"] = row.prior
    return globals()[row.entry](solve_op, y, num_iterations=iterations, **solver_kwargs)


def _resolve_faults(faults, num_ranks: int) -> FaultInjector | None:
    """Normalize the ``faults`` argument into an injector (or None)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        injector = faults
    elif isinstance(faults, FaultConfig):
        injector = FaultInjector(faults)
    elif isinstance(faults, str):
        injector = FaultInjector(FaultConfig.parse(faults))
    else:
        raise TypeError(f"cannot interpret faults spec {faults!r}")
    if num_ranks < 2:
        raise ValueError(
            "fault injection targets the simulated communicator; "
            "it requires num_ranks >= 2"
        )
    return injector


def _resolve_topology(topology, num_ranks: int) -> Topology:
    """Normalize the ``topology`` argument (spec string, Topology, or
    None = ambient ``REPRO_TOPOLOGY``)."""
    if topology is None:
        return Topology.ambient(num_ranks)
    if isinstance(topology, Topology):
        if topology.num_ranks != num_ranks:
            raise ValueError(
                f"topology spans {topology.num_ranks} ranks, "
                f"reconstruction uses {num_ranks}"
            )
        return topology
    if isinstance(topology, str):
        return parse_topology(topology, num_ranks)
    raise TypeError(f"cannot interpret topology spec {topology!r}")


def _resolve_resilience_kwargs(checkpoint, checkpoint_every: int, resume, health) -> dict:
    """Build the checkpoint/resume/health kwargs of a resilient solve."""
    extras: dict = {}
    if checkpoint is not None or checkpoint_every:
        if not isinstance(checkpoint, CheckpointManager):
            every = checkpoint_every if checkpoint_every else 10
            checkpoint = CheckpointManager(checkpoint, every=every)
        extras["checkpoint"] = checkpoint
    if resume is not None:
        extras["resume"] = resume
    if health is not None and health is not False:
        extras["health"] = health if isinstance(health, HealthMonitor) else HealthMonitor()
    return extras


def reconstruct(
    sinogram: np.ndarray,
    geometry: ParallelBeamGeometry | None = None,
    solver: str = "cg",
    iterations: int = 30,
    ordering: str = "pseudo-hilbert",
    config: OperatorConfig | None = None,
    num_ranks: int = 1,
    topology=None,
    operator: MemXCTOperator | None = None,
    faults=None,
    checkpoint=None,
    checkpoint_every: int = 0,
    resume=None,
    health=None,
    cache=None,
    **solver_kwargs,
) -> ReconstructionResult:
    """Reconstruct a tomogram from a 2D sinogram.

    Parameters
    ----------
    sinogram:
        Row-major ``(M, N)`` measurement array.
    geometry:
        Scan geometry; inferred from the sinogram shape when omitted.
    solver:
        A row of :data:`repro.solvers.SOLVER_TABLE` (``"cg"`` is MemXCT's
        choice; a prior row needs ``strength=``).  A row the table says
        cannot do what the call asks, or a non-finite sinogram, is
        refused before anything is preprocessed.
    iterations:
        Iteration budget (30 CG iterations is the paper's early stop).
    ordering:
        Domain ordering for both domains.
    config:
        The operator's configuration (``OperatorConfig()`` by default):
        partition size, precision and worker spec all live here.  Used only when preprocessing runs here.
    num_ranks:
        Simulated MPI ranks; > 1 reconstructs through the distributed
        ``A = R C A_p`` operator (numerically identical by design).
        The operator keeps the per-rank blocks it cut, so a later call
        at the same rank count builds nothing; ``operator.close()``
        releases them.
    topology:
        Rank-to-node placement for ``num_ranks > 1``: a spec string
        like ``"nodes:2,ranks:2"`` (or ``"flat"``), or a ready
        :class:`~repro.topology.Topology`.  A non-flat topology runs
        the exchange through the hierarchical
        :class:`~repro.topology.HierComm` — bit-exact with the flat
        path; the two-level traffic split lands in ``result.extra``.
        Defaults to the ambient ``REPRO_TOPOLOGY`` (flat when unset).
    operator:
        A previously preprocessed operator, adopted as is (the result's
        ``preprocess_report`` is then empty) — the paper's many-slice
        amortization (Table 5).  To run it on other workers, call
        ``operator.set_workers(...)`` first.
    faults:
        Fault-injection spec for the simulated communicator (a spec
        string like ``"drop=0.05,corrupt=0.02,seed=7"``, a
        :class:`~repro.resilience.FaultConfig`, or a ready
        :class:`~repro.resilience.FaultInjector`).  Requires
        ``num_ranks >= 2``.  Injected transient faults are healed by
        the reliable transport; rank crashes trigger graceful
        degradation.  Fault statistics land in ``result.extra``.
    checkpoint, checkpoint_every:
        Periodic solver checkpointing: a file path (or
        :class:`~repro.resilience.CheckpointManager`) plus the
        snapshot period in iterations (default 10 when only a path is
        given).  ``checkpoint_every`` alone keeps in-memory snapshots
        for health rollback.
    resume:
        Checkpoint to continue from (path, manager, or snapshot);
        continuation is bit-exact for every resilient solver.
    health:
        ``True`` (default monitor) or a configured
        :class:`~repro.resilience.HealthMonitor` — detects NaN/Inf and
        sustained divergence, rolling back to the last checkpoint with
        a damped step.
    cache:
        Plan-cache selector forwarded to :func:`preprocess`.
    solver_kwargs:
        Extra arguments for the chosen solver.
    """
    sinogram = np.asarray(sinogram)
    if sinogram.ndim != 2:
        raise ValueError(f"sinogram must be 2D, got shape {sinogram.shape}")
    if geometry is None:
        geometry = ParallelBeamGeometry(sinogram.shape[0], sinogram.shape[1])
    if sinogram.shape != geometry.sinogram_shape:
        raise ValueError(
            f"sinogram shape {sinogram.shape} does not match geometry "
            f"{geometry.sinogram_shape}"
        )
    if num_ranks < 1:
        raise ValueError(f"rank count must be >= 1, got {num_ranks}")
    if not np.all(np.isfinite(sinogram)):
        raise ValueError("sinogram contains non-finite values")

    injector = _resolve_faults(faults, num_ranks)
    topo = _resolve_topology(topology, num_ranks) if num_ranks > 1 else None
    resilience_kwargs = _resolve_resilience_kwargs(
        checkpoint, checkpoint_every, resume, health
    )
    row = solver_row(
        solver, ranks=num_ranks > 1, resilient=bool(resilience_kwargs),
        strength=solver_kwargs.get("strength"),
    )

    if operator is None:
        operator, preprocess_report = preprocess(
            geometry, config=config, ordering=ordering, cache=cache
        )
    else:
        preprocess_report = PreprocessReport()

    y = operator.sinogram_to_ordered(sinogram)

    solve_op = operator
    if num_ranks > 1:
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, num_ranks
        )
        comm = None
        if injector is not None:
            comm = (
                SimComm(num_ranks, fault_injector=injector)
                if topo.is_flat
                else HierComm(topo, fault_injector=injector)
            )
        # Rank data depend only on the two decompositions: the operator
        # keeps the last cut (one slot) and a hit builds nothing.  On a
        # miss the old entry goes first, so one decomposition stays
        # resident, and the rank blocks are the rank cut of the plan's
        # ``A^T``: sliced out of the operator's derived transpose (held
        # until close()) on a plan of ``A``, cut straight from ``Q`` on an
        # orbit plan, where neither ``A`` nor ``A^T`` is built — nor is
        # it when a crash's degrade() cuts again.  The list is stored
        # before the solve: degrade() replaces solve_op.ranks, never
        # this list.  An orbit plan's row sums are kept in its entries,
        # so a later solve on the same cut expands no rows.
        key = (tomo_dec.bounds.tobytes(), sino_dec.bounds.tobytes())
        rank_data = operator._rank_data.get(key)
        if rank_data is None:
            operator._rank_data.clear()
        with span("dist.build", ranks=num_ranks, reused=rank_data is not None):
            solve_op = DistributedOperator(
                operator.plan, tomo_dec, sino_dec, comm=comm, topology=topo,
                rank_data=rank_data,
                transpose=None if operator._orbit else operator.transpose,
            )
        operator._rank_data[key] = solve_op.ranks

    t0 = time.perf_counter()
    solve = run_solver(
        row, operator, y, iterations, solve_op, **resilience_kwargs, **solver_kwargs
    )
    solve_seconds = time.perf_counter() - t0

    extra: dict = {}
    if isinstance(solve_op, DistributedOperator):  # passed in or ambient
        injector = solve_op.comm.fault_injector
    if injector is not None:
        extra["fault_stats"] = injector.stats.as_dict()
    if isinstance(solve_op, DistributedOperator):
        extra["topology"] = solve_op.topology.describe()
        hier = solve_op.hier_log()
        if hier is not None:
            extra["hier_comm"] = {
                "num_nodes": hier.num_nodes,
                "intra_bytes": hier.intra_bytes,
                "intra_messages": hier.intra_messages,
                "inter_bytes": hier.inter_bytes(),
                "inter_messages": hier.inter_messages,
            }
    if isinstance(solve_op, DistributedOperator) and solve_op.degradations:
        extra["degradations"] = list(solve_op.degradations)
        extra["surviving_ranks"] = solve_op.num_ranks
    manager = resilience_kwargs.get("checkpoint")
    if manager is not None and manager.path is not None:
        extra["checkpoint_path"] = str(manager.path)

    image = operator.ordered_to_image(solve.x)
    return ReconstructionResult(
        image=image,
        solve=solve,
        preprocess_report=preprocess_report,
        operator=operator,
        solve_seconds=solve_seconds,
        solver=solver,
        num_ranks=num_ranks,
        extra=extra,
    )
