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
from ..solvers import SolveResult, cgls, icd, sgd, sirt
from .operator import MemXCTOperator, OperatorConfig
from .preprocess import PreprocessReport, preprocess

__all__ = ["ReconstructionResult", "reconstruct", "SOLVERS"]

SOLVERS = ("cg", "sirt", "sgd", "icd", "fbp")

#: Solvers whose recurrence state the checkpoint/resume/health layer
#: understands (see docs/resilience.md).
RESILIENT_SOLVERS = ("cg", "sirt")


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


def _run_solver(solver: str, op, y: np.ndarray, iterations: int, **solver_kwargs) -> SolveResult:
    if solver == "cg":
        return cgls(op, y, num_iterations=iterations, **solver_kwargs)
    if solver == "sirt":
        return sirt(op, y, num_iterations=iterations, **solver_kwargs)
    if solver == "sgd":
        return sgd(op, y, num_iterations=iterations, **solver_kwargs)
    raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")


def _run_direct_or_matrix_solver(
    solver: str,
    operator: MemXCTOperator,
    sinogram: np.ndarray,
    y: np.ndarray,
    iterations: int,
    **solver_kwargs,
) -> SolveResult:
    """Solvers needing operator internals: FBP (one-shot) and ICD."""
    if solver == "fbp":
        from ..solvers import fbp

        image = fbp(operator, sinogram, **solver_kwargs)
        x = operator.image_to_ordered(image)
        residual = float(
            np.linalg.norm(np.asarray(operator.forward(x), dtype=np.float64) - y)
        )
        result = SolveResult(x=x, iterations=1)
        result.residual_norms.append(residual)
        result.solution_norms.append(float(np.linalg.norm(x)))
        result.stop_reason = "direct solve"
        return result
    if solver == "icd":
        return icd(
            operator.matrix, operator.transpose, y, num_sweeps=iterations, **solver_kwargs
        )
    raise AssertionError(solver)


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


def _resolve_resilience_kwargs(
    solver: str, checkpoint, checkpoint_every: int, resume, health
) -> dict:
    """Build the checkpoint/resume/health kwargs for a resilient solver."""
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
    if extras and solver not in RESILIENT_SOLVERS:
        raise ValueError(
            f"solver {solver!r} does not support checkpoint/resume/health; "
            f"resilient solvers are {RESILIENT_SOLVERS}"
        )
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
        One of :data:`SOLVERS`: ``"cg"`` (MemXCT's choice), ``"sirt"``
        (Trace's), ``"sgd"``, ``"icd"`` (coordinate descent on the
        ordered matrix and its derived transpose) or ``"fbp"`` (direct
        filtered backprojection; ``iterations`` is ignored).
    iterations:
        Iteration budget (30 CG iterations is the paper's early stop).
    ordering:
        Domain ordering for both domains.
    config:
        The operator's configuration (``OperatorConfig()`` by default):
        kernel, layout sizes, precision and worker spec all live
        here.  Used only when preprocessing runs here.
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
        continuation is bit-exact for CG.
    health:
        ``True`` (default monitor) or a configured
        :class:`~repro.resilience.HealthMonitor` — detects NaN/Inf and
        sustained divergence, rolling back to the last checkpoint with
        a damped step.
    cache:
        Plan-cache selector forwarded to :func:`preprocess` (also
        where tuning records persist).
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

    injector = _resolve_faults(faults, num_ranks)
    resilience_kwargs = _resolve_resilience_kwargs(
        solver, checkpoint, checkpoint_every, resume, health
    )

    if operator is None:
        operator, preprocess_report = preprocess(
            geometry, config=config, ordering=ordering, cache=cache
        )
    else:
        preprocess_report = PreprocessReport()

    y = operator.sinogram_to_ordered(sinogram)

    if solver in ("fbp", "icd"):
        if num_ranks > 1:
            raise ValueError(f"solver {solver!r} does not support num_ranks > 1")
        t0 = time.perf_counter()
        solve = _run_direct_or_matrix_solver(
            solver, operator, sinogram, y, iterations, **solver_kwargs
        )
        solve_seconds = time.perf_counter() - t0
        return ReconstructionResult(
            image=operator.ordered_to_image(solve.x),
            solve=solve,
            preprocess_report=preprocess_report,
            operator=operator,
            solve_seconds=solve_seconds,
            solver=solver,
            num_ranks=1,
        )

    solve_op = operator
    if num_ranks > 1:
        tomo_dec, sino_dec = decompose_both(
            operator.tomo_ordering, operator.sino_ordering, num_ranks
        )
        topo = _resolve_topology(topology, num_ranks)
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
        # resident, and the rank blocks are sliced out of the operator's
        # derived transpose (built at the first cut, dropped with the
        # blocks by close()).  The list is stored before the solve: a
        # crash's degrade() replaces solve_op.ranks, never this list.
        key = (tomo_dec.bounds.tobytes(), sino_dec.bounds.tobytes())
        rank_data = operator._rank_data.get(key)
        if rank_data is None:
            operator._rank_data.clear()
        with span("dist.build", ranks=num_ranks, reused=rank_data is not None):
            solve_op = DistributedOperator(
                operator.matrix, tomo_dec, sino_dec, comm=comm, topology=topo,
                rank_data=rank_data, transpose=operator.transpose,
            )
        operator._rank_data[key] = solve_op.ranks

    t0 = time.perf_counter()
    solve = _run_solver(
        solver, solve_op, y, iterations, **resilience_kwargs, **solver_kwargs
    )
    solve_seconds = time.perf_counter() - t0

    extra: dict = {}
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
