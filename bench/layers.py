"""Measurements every workload shares.

The four workloads differ in which layers they push work through, but
they all build an operator (cold, then from the plan cache), all solve
through ``forward``/``adjoint``, and all are judged by the same output
checks.  Those common pieces live here; the workload modules add what
only they exercise (pipeline/dataio, dist/topology, service/persist).
"""

from __future__ import annotations

import sys

import numpy as np

from repro import obs, preprocess
from repro.cache import PlanCache
from repro.core import MemXCTOperator
from repro.sparse import CSRMatrix

from .harness import Context, file_mb
from .tracing import Span, Tracer, accounting_table

#: A traced region fails the run when more than this share of its wall
#: time lies outside every layer span.
MAX_UNATTRIBUTED = 0.10


# -- inputs and output checks ----------------------------------------------


def noisy_sinogram(operator, phantom: np.ndarray, seed: int, level: float = 0.01):
    """Forward projection of ``phantom`` plus seeded Gaussian noise at
    ``level`` of the peak — the only thing ``--seed`` changes."""
    clean = operator.project_image(phantom).astype(np.float64)
    rng = np.random.default_rng(seed)
    return clean + rng.normal(0.0, level * clean.max(), clean.shape)


def rel_residual(operator, image: np.ndarray, sinogram: np.ndarray) -> float:
    """``||y - A x|| / ||y||`` recomputed from the returned image."""
    y = np.asarray(sinogram, dtype=np.float64)
    ax = np.asarray(operator.project_image(image), dtype=np.float64)
    return float(np.linalg.norm(y - ax) / np.linalg.norm(y))


def rmse(image: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(image, np.float64) - truth) ** 2)))


def check_ceilings(ctx: Context, quality: dict, size: dict) -> None:
    """Residual and RMSE under the workload's fixed ceilings."""
    for name in ("rel_residual", "rmse"):
        ctx.checks.below(f"{name} ceiling", quality[name], size[f"max_{name}"])


def check_adjointness(ctx: Context, operator) -> None:
    """``<A x, y> = <x, A^T y>`` on seeded random vectors.

    The transpose is exact, so the gap is rounding only: 1e-10 when the
    kernels compute in float64, 1e-6 when they compute in float32 — the
    mixed default and the fp32 path (largest gap seen over 70 runs:
    1.7e-8).
    """
    tolerance = 1e-10 if operator.compute_dtype == np.float64 else 1e-6
    rng = np.random.default_rng(ctx.seed + 17)
    x = rng.random(operator.num_pixels)
    y = rng.random(operator.num_rays)
    lhs = float(np.dot(np.asarray(operator.forward(x), np.float64), y))
    rhs = float(np.dot(x, np.asarray(operator.adjoint(y), np.float64)))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    ctx.checks.below("adjointness", gap, tolerance)


# -- untraced set-up ---------------------------------------------------------


def plan_entry_mb(cache_dir, report) -> float:
    return file_mb(PlanCache(cache_dir).plan_path(report.cache_key))


def cold_build(ctx: Context, geometry, config, tag):
    """One ``setup_s`` sample: ``preprocess`` into a fresh plan cache.

    Returns the operator, its cache directory and the report.
    """
    cache_dir = ctx.workdir / f"plans-{tag}"
    operator, report = ctx.time("setup_s", preprocess, geometry, config=config, cache=cache_dir)
    ctx.checks.check("cold build missed the cache", not report.cache_hit)
    return operator, cache_dir, report


def warm_build(ctx: Context, geometry, config, cache_dir):
    """One ``warm_setup_s`` sample: the same call on the populated cache.

    Returns the loaded operator.  Callers drop the operator they hold
    just before this call, so the load reuses the pages that frees: on
    this guest, memory freed more than a second ago has gone back to the
    host and touching it again is slow (a 580 MB load reads 0.55 s on
    just-freed pages, 2.1 s otherwise) — a second mode the samples
    should not mix.
    """
    operator, report = ctx.time(
        "warm_setup_s", preprocess, geometry, config=config, cache=cache_dir
    )
    ctx.checks.check("warm build hit the cache", report.cache_hit)
    return operator


def timing_metrics(ctx: Context, cache_dir, report) -> dict:
    """The set-up and solve metrics of a workload that sampled them
    through :meth:`Context.time`, plus the plan entry's size."""
    metrics = {name: ctx.metric(name) for name in ("setup_s", "warm_setup_s", "solve_s")}
    metrics["plan_mb"] = plan_entry_mb(cache_dir, report)
    return metrics


# -- traced set-up -----------------------------------------------------------


def setup_targets() -> list:
    """Layer boundaries ``preprocess`` crosses, as it names them."""
    pre = sys.modules["repro.core.preprocess"]
    return [
        (pre, "make_ordering", "ordering.build"),
        (pre, "build_projection_matrix", "trace.build"),
        (CSRMatrix, "from_scipy", "sparse.permute"),
        (CSRMatrix, "permute", "sparse.permute"),
        (CSRMatrix, "sort_rows_by_index", "sparse.permute"),
        (pre, "scan_transpose", "sparse.transpose"),
        (pre, "build_buffered", "sparse.layout_build"),
        (pre, "build_ell", "sparse.layout_build"),
        (PlanCache, "store", "cache.store"),
        (PlanCache, "load", "cache.load"),
    ]


def operator_targets() -> list:
    """The timing proxy around the operator's four entry points."""
    return [
        (MemXCTOperator, "forward", "core.fwd"),
        (MemXCTOperator, "adjoint", "core.adj"),
        (MemXCTOperator, "forward_batch", "core.fwd"),
        (MemXCTOperator, "adjoint_batch", "core.adj"),
    ]


def close_accounts(ctx: Context, tracer: Tracer, root: Span, title: str) -> float:
    """Print ``root``'s layer table and check that it closes."""
    text, share = accounting_table(title, root.duration, tracer.stats(root))
    ctx.notes.append(text)
    ctx.checks.below(f"{title}: unattributed share", share, MAX_UNATTRIBUTED)
    return share


def trace_setup(ctx: Context, tracer: Tracer, geometry, config):
    """One cold and one warm ``preprocess`` under the set-up spans.

    Returns the operator, its cache directory, the set-up layer metrics
    and the cold root's unattributed share.
    """
    cache_dir = ctx.workdir / "plans-traced"
    with tracer.patched(setup_targets()):
        with tracer.span("setup") as cold:
            operator, report = preprocess(geometry, config=config, cache=cache_dir)
        with tracer.span("warm_setup") as warm:
            operator, _ = preprocess(geometry, config=config, cache=cache_dir)
    ctx.checks.attempt(2)
    stats = tracer.stats(cold)

    def self_s(name: str) -> float:
        return stats[name].self_time if name in stats else 0.0

    nnz = operator.matrix.nnz
    entry_mb = plan_entry_mb(cache_dir, report)
    load_s = tracer.stats(warm)["cache.load"].total
    metrics = {
        "ordering.build_s": self_s("ordering.build"),
        "trace.build_s": self_s("trace.build"),
        "trace.mnnz_per_s": nnz / self_s("trace.build") / 1e6,
        "trace.nnz": nnz,
        "sparse.permute_s": self_s("sparse.permute"),
        "sparse.transpose_s": self_s("sparse.transpose"),
        "sparse.layout_build_s": self_s("sparse.layout_build"),
        "cache.store_s": self_s("cache.store"),
        "cache.load_s": load_s,
        "cache.load_mb_per_s": entry_mb / load_s,
        "cache.entry_mb": entry_mb,
    }
    share = close_accounts(ctx, tracer, cold, "setup (cold preprocess)")
    return operator, cache_dir, metrics, share


# -- traced solve ------------------------------------------------------------


def solve_layer_metrics(tracer: Tracer, root: Span, capture: obs.Capture) -> dict:
    """Operator and solver shares of one traced solve region.

    Times come from the bench's own spans; the two counts are the
    program's exact ``repro.obs`` counters.
    """
    stats = tracer.stats(root)
    fwd = stats.get("core.fwd")
    adj = stats.get("core.adj")
    spmv_s = (fwd.total if fwd else 0.0) + (adj.total if adj else 0.0)
    scalar_s = stats["solvers.cg"].self_time
    return {
        "core.fwd_ms": fwd.mean_ms if fwd else 0.0,
        "core.adj_ms": adj.mean_ms if adj else 0.0,
        "core.spmv_calls": capture.total(obs.SPMV_CALLS),
        "core.spmv_share": spmv_s / root.duration,
        "solvers.scalar_s": scalar_s,
        "solvers.scalar_share": scalar_s / root.duration,
        "solvers.iterations": capture.total(obs.SOLVER_ITERATIONS),
    }
