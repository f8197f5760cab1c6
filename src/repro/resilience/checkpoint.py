"""Periodic solver checkpointing with bit-exact resume.

Long CG runs at beamline scale are killed by node failures, walltime
limits, and operators; re-running 30 iterations from scratch wastes
exactly the compute the memory-centric design saved.  The
:class:`CheckpointManager` snapshots a solver's *recurrence state* —
for CGLS that is ``(x, r, p, gamma, gamma0)``, for SIRT/MLEM just
``x`` — every N iterations, through the same crash-safe atomic-write +
CRC-32 path the operator format and plan cache use
(:mod:`repro.persist`), so a killed run resumes to a **bit-identical**
final iterate.

The manager also keeps the latest snapshot *in memory* (even with no
disk path), which is what the numerical-health monitor rolls back to
when an iteration produces NaN/Inf or sustained divergence.

Checkpoint files are single ``.npz`` archives, overwritten atomically
on each save — a crash mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs import (
    CHECKPOINT_BYTES_WRITTEN,
    CHECKPOINT_RESTORES,
    CHECKPOINT_SAVES,
    add_count,
    span,
)
from ..persist import CorruptArchiveError, atomic_savez_checked, load_checked_npz

__all__ = [
    "SolverCheckpoint",
    "CheckpointManager",
    "CheckpointError",
    "CheckpointIntegrityWarning",
    "CHECKPOINT_FORMAT_VERSION",
]

CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is missing, unreadable, or fails its checksum."""


class CheckpointIntegrityWarning(UserWarning):
    """A checkpoint was unusable and has been ignored."""


@dataclass
class SolverCheckpoint:
    """One solver-state snapshot.

    ``arrays`` holds the recurrence vectors (float64, saved losslessly);
    ``scalars`` the recurrence scalars; the two history lists restore
    the convergence record so a resumed :class:`~repro.solvers.base.
    SolveResult` is indistinguishable from an uninterrupted one.
    """

    solver: str
    iteration: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    residual_norms: list[float] = field(default_factory=list)
    solution_norms: list[float] = field(default_factory=list)

    def nbytes(self) -> int:
        return int(sum(np.asarray(a).nbytes for a in self.arrays.values()))


class CheckpointManager:
    """Snapshot/restore policy for iterative solvers.

    Parameters
    ----------
    path:
        Checkpoint file (``.npz``).  ``None`` keeps snapshots in memory
        only — enough for health rollback, no resume across processes.
    every:
        Snapshot period in iterations; ``0`` disables periodic saves
        (explicit :meth:`save` calls still work).
    """

    def __init__(self, path: str | Path | None = None, every: int = 10):
        if every < 0:
            raise ValueError(f"checkpoint period must be >= 0, got {every}")
        self.path = Path(path) if path is not None else None
        if self.path is not None and not self.path.name.endswith(".npz"):
            self.path = self.path.with_name(self.path.name + ".npz")
        self.every = int(every)
        self.last: SolverCheckpoint | None = None

    # -- policy ---------------------------------------------------------

    def should_save(self, iteration: int) -> bool:
        return self.every > 0 and iteration > 0 and iteration % self.every == 0

    def maybe_save(self, checkpoint: SolverCheckpoint) -> bool:
        """Save when the periodic policy says so; returns whether it did."""
        if not self.should_save(checkpoint.iteration):
            return False
        self.save(checkpoint)
        return True

    # -- save / load -----------------------------------------------------

    def save(self, checkpoint: SolverCheckpoint) -> None:
        """Snapshot to memory and (when a path is set) to disk, atomically."""
        # Copy the arrays: the solver mutates x/r/p in place and the
        # rollback target must be the values at snapshot time.
        checkpoint = SolverCheckpoint(
            solver=checkpoint.solver,
            iteration=checkpoint.iteration,
            arrays={k: np.array(v, copy=True) for k, v in checkpoint.arrays.items()},
            scalars=dict(checkpoint.scalars),
            residual_norms=list(checkpoint.residual_norms),
            solution_norms=list(checkpoint.solution_norms),
        )
        self.last = checkpoint
        add_count(CHECKPOINT_SAVES, 1)
        if self.path is None:
            return
        with span(
            "checkpoint.save", solver=checkpoint.solver, iteration=checkpoint.iteration
        ):
            payload: dict = {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "solver": checkpoint.solver,
                "iteration": checkpoint.iteration,
                "residual_norms": np.asarray(checkpoint.residual_norms, dtype=np.float64),
                "solution_norms": np.asarray(checkpoint.solution_norms, dtype=np.float64),
                "scalar_names": np.asarray(sorted(checkpoint.scalars)),
                "scalar_values": np.asarray(
                    [checkpoint.scalars[k] for k in sorted(checkpoint.scalars)],
                    dtype=np.float64,
                ),
            }
            for name, arr in checkpoint.arrays.items():
                payload[f"array_{name}"] = np.asarray(arr)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_savez_checked(self.path, payload)
            add_count(CHECKPOINT_BYTES_WRITTEN, self.path.stat().st_size)

    def load(self) -> SolverCheckpoint | None:
        """Latest usable checkpoint: disk when a path is set, else memory.

        A corrupt or version-stale file is ignored with a
        :class:`CheckpointIntegrityWarning` (returns ``None``) — the
        caller decides whether a cold start is acceptable.
        """
        if self.path is None:
            return self.last
        if not self.path.exists():
            return None
        with span("checkpoint.restore", path=str(self.path)):
            try:
                checkpoint = _read_checkpoint(self.path)
            except CheckpointError as exc:
                warnings.warn(
                    f"checkpoint {self.path} is unusable ({exc}); ignoring it",
                    CheckpointIntegrityWarning,
                    stacklevel=2,
                )
                return None
        self.last = checkpoint
        add_count(CHECKPOINT_RESTORES, 1)
        return checkpoint

    def require(self) -> SolverCheckpoint:
        """Like :meth:`load` but failure is an error (explicit --resume)."""
        if self.path is not None and not self.path.exists():
            raise CheckpointError(f"no checkpoint at {self.path}")
        checkpoint = self.load()
        if checkpoint is None:
            raise CheckpointError(
                f"checkpoint {self.path or '<memory>'} is missing or corrupt"
            )
        return checkpoint


def _read_checkpoint(path: Path) -> SolverCheckpoint:
    try:
        payload = load_checked_npz(path)
    except CorruptArchiveError as exc:
        raise CheckpointError(str(exc)) from exc
    version = int(payload.get("format_version", -1))
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    names = [str(n) for n in payload["scalar_names"]]
    values = np.asarray(payload["scalar_values"], dtype=np.float64)
    return SolverCheckpoint(
        solver=str(payload["solver"]),
        iteration=int(payload["iteration"]),
        arrays={
            name[len("array_"):]: payload[name]
            for name in payload
            if name.startswith("array_")
        },
        scalars={n: float(v) for n, v in zip(names, values)},
        residual_norms=[float(v) for v in payload["residual_norms"]],
        solution_norms=[float(v) for v in payload["solution_norms"]],
    )
