"""The solver table: every solver named once, with what it can do.

Every front door (``reconstruct``, ``reconstruct_scenario``,
``reconstruct_stack``, the job server's ``JobSpec`` and the CLI's
``--solver`` choices) accepts, refuses and routes from
:data:`SOLVER_TABLE`, and refuses before it preprocesses anything
(``docs/solvers.md``).  A row names its functions (``entry`` for one
solve, ``batch`` for a slab); each front door looks the name up in its
own module at call time, so a wrapper on that attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SOLVER_TABLE", "SolverRow", "clip_counts", "solver_names", "solver_row"]


@dataclass(frozen=True)
class SolverRow:
    """One solver and what it can do (the capability table of docs/solvers.md)."""

    name: str
    entry: str  # the repro.solvers function of one solve
    batch: str | None = None  # the slab function: one recurrence over (N, S)
    resilient: bool = False  # takes checkpoint / resume / health
    ranks: bool = False  # runs on the distributed operator
    counts: bool = False  # measurements are clipped at 0 (MLEM models counts)
    prior: str | None = None  # the regularizer of a prior solve; needs a strength

    @property
    def slab(self) -> bool:
        return self.batch is not None


SOLVER_TABLE = (
    SolverRow("cg", "cgls", "cgls_batch", resilient=True, ranks=True),
    SolverRow("sirt", "sirt", "sirt_batch", resilient=True, ranks=True),
    SolverRow("mlem", "mlem", "mlem_batch", resilient=True, ranks=True, counts=True),
    SolverRow("sgd", "sgd", ranks=True),
    SolverRow("icd", "icd"),
    SolverRow("fbp", "fbp"),
    SolverRow("tikhonov", "regularized_cgls", prior="identity"),
    SolverRow("gradient", "regularized_cgls", prior="gradient"),
    SolverRow("tv", "tv_cgls", prior="tv"),
)

#: How a refusal names each capability a front door can ask for.
_NEEDS = dict(slab="slab (multi-RHS) solves", ranks="num_ranks > 1",
              resilient="checkpoint/resume/health")


def solver_names(keep=None) -> tuple[str, ...]:
    """The names of the rows ``keep`` keeps (every row by default)."""
    return tuple(row.name for row in SOLVER_TABLE if keep is None or keep(row))


def solver_row(name: str, *, slab=False, ranks=False, resilient=False, strength=None):
    """The row of ``name``, or ``ValueError`` if it lacks a capability
    the call needs or is a prior row and the call carries no strength."""
    row = next((row for row in SOLVER_TABLE if row.name == name), None)
    if row is None:
        raise ValueError(f"unknown solver {name!r}; expected one of {solver_names()}")
    for need, wanted in {"slab": slab, "ranks": ranks, "resilient": resilient}.items():
        if wanted and not getattr(row, need):
            able = solver_names(lambda r: getattr(r, need))
            raise ValueError(
                f"solver {name!r} does not support {_NEEDS[need]}; "
                f"solvers that do are {able}"
            )
    if row.prior is not None and strength is None:
        raise ValueError(f"solver {name!r} needs a strength")
    return row


def clip_counts(row: SolverRow, Y: np.ndarray, dtype) -> np.ndarray:
    """``Y`` as ``row``'s solver reads it: a counts row gets a new array
    at ``dtype`` with negatives (conditioning noise on log data) set to 0."""
    return np.maximum(Y, 0.0, dtype=dtype) if row.counts else Y
