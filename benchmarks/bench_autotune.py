"""Autotuner quality and the fp32 compute-path payoff.

Two claims from docs/autotuning.md, measured on real layouts:

1. **Pruned search is near-exhaustive**: the predict-then-trial search
   (top-K candidates measured, then refined) lands within 5% of a
   fully exhaustive measured sweep of the same candidate space — or
   within this host's measurement noise of it, since the buffered
   configurations form a plateau whose internal ranking drifts
   run-to-run.
2. **fp32 halves the vector traffic**: at 256x256, batched SpMV in
   float32 is >= 1.5x faster than float64 (the multi-RHS path is pure
   streaming, so the 2x byte reduction shows through); single-vector
   SpMV, where index traffic is not amortized, still gains >= 1.1x.
"""

import time

import numpy as np

from repro.autotune import Autotuner
from repro.geometry import ParallelBeamGeometry
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix, build_buffered, build_ell, scan_transpose
from repro.trace import build_projection_matrix
from repro.utils import render_table


def _traced(num_angles, num_channels, dtype="float32"):
    g = ParallelBeamGeometry(num_angles, num_channels)
    n = g.grid.n
    tomo = make_ordering("pseudo-hilbert", n, n, min_tiles=16)
    sino = make_ordering("pseudo-hilbert", g.num_angles, g.num_channels, min_tiles=16)
    raw = build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    return CSRMatrix.from_scipy(raw, dtype=dtype)


def _interleaved_minima(calls, rounds=25):
    """Fastest time of each ``(fn, x)`` call, the calls taken in turn.

    Round-robin (the protocol of ``tests/test_obs.py::
    TestDisabledOverhead``): a host slowdown lands on every side of a
    ratio alike instead of on whichever block of repeats it falls in.
    """
    best = [float("inf")] * len(calls)
    for fn, x in calls:  # one untimed call each: page in, derive views
        fn(x)
    for _ in range(rounds):
        for i, (fn, x) in enumerate(calls):
            t0 = time.perf_counter()
            fn(x)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_fp32_spmv_speedup(report):
    """float32 vs float64 SpMV at 256x256 (paper-kernel value dtypes)."""
    m64 = _traced(256, 256, dtype="float64")
    m32 = m64.astype("float32")
    rng = np.random.default_rng(0)
    x32 = rng.random(m32.num_cols, dtype=np.float32)
    x64 = x32.astype(np.float64)
    X32 = rng.random((m32.num_cols, 8), dtype=np.float32)
    X64 = X32.astype(np.float64)

    t_single_32, t_single_64, t_batch_32, t_batch_64 = _interleaved_minima(
        [(m32.spmv, x32), (m64.spmv, x64), (m32.spmv, X32), (m64.spmv, X64)]
    )
    single_speedup = t_single_64 / t_single_32
    batch_speedup = t_batch_64 / t_batch_32

    rows = [
        ["single-vector", f"{t_single_32 * 1e3:.2f} ms", f"{t_single_64 * 1e3:.2f} ms",
         f"{single_speedup:.2f}x", ">= 1.1x"],
        ["batched (8 RHS)", f"{t_batch_32 * 1e3:.2f} ms", f"{t_batch_64 * 1e3:.2f} ms",
         f"{batch_speedup:.2f}x", ">= 1.5x"],
    ]
    report(
        "autotune_fp32_speedup",
        render_table(
            ["SpMV", "fp32", "fp64", "speedup", "floor"],
            rows,
            title=f"fp32 vs fp64 SpMV, 256x256 (nnz = {m32.nnz:,})",
        ),
        extra={
            "single_speedup": single_speedup,
            "batch_speedup": batch_speedup,
            "nnz": m32.nnz,
        },
    )
    # The multi-RHS path streams values/vectors with index traffic
    # amortized over 8 columns — the 2x byte halving must show.
    assert batch_speedup >= 1.5, f"batched fp32 speedup {batch_speedup:.2f}x < 1.5x"
    assert single_speedup >= 1.1, f"single fp32 speedup {single_speedup:.2f}x < 1.1x"


def test_tuned_config_within_5pct_of_exhaustive(report):
    """Top-K pruned search vs an exhaustive measured sweep."""
    matrix = _traced(128, 128)
    transpose = scan_transpose(matrix)

    partition_sizes = (64, 128, 256)
    buffer_sizes = (8192, 32768)
    tuner = Autotuner(
        partition_sizes=partition_sizes,
        buffer_sizes=buffer_sizes,
        top_k=3,
        trial_repeats=5,
        seed=0,
    )
    outcome = tuner.tune(matrix, transpose, mode="auto")

    # Exhaustive: measure every candidate with the identical timer,
    # interleaved over several rounds so slow drift (turbo, cache
    # state) cannot skew one candidate's number, and score the tuned
    # pick from the same sweep so both sides share one measurement.
    # Median over rounds: a single lucky sample must not crown a
    # winner the tuner could never reproduce.
    space = tuner.candidate_space()
    rounds = {cand: [] for cand in space}
    for _ in range(3):
        for cand in space:
            rounds[cand].append(tuner._time_candidate(matrix, transpose, cand))
    sweep = {cand: float(np.median(times)) for cand, times in rounds.items()}
    best_cand = min(space, key=lambda c: sweep[c])
    best_seconds = sweep[best_cand]
    tuned_seconds = sweep[outcome.best.candidate]
    ratio = tuned_seconds / best_seconds
    # When the tuned pick's fastest round beats the "best" config's
    # slowest round, the two are within this host's measurement noise
    # and the sweep's ranking between them is not meaningful.  The
    # tuner's own trial time is the third witness: host conditions
    # drift between the tune pass and the sweep pass, and a pick that
    # measured at the sweep-best level when it was chosen was not a
    # search failure.
    within_noise = min(rounds[outcome.best.candidate]) <= max(rounds[best_cand])
    fast_when_chosen = outcome.best.measured_seconds <= 1.05 * best_seconds

    rows = [
        ["tuned (top-3 trials)", outcome.best.candidate.kernel,
         outcome.best.candidate.partition_size,
         f"{outcome.best.candidate.buffer_bytes // 1024} KB",
         f"{tuned_seconds * 1e3:.3f} ms"],
        ["exhaustive best", best_cand.kernel, best_cand.partition_size,
         f"{best_cand.buffer_bytes // 1024} KB", f"{best_seconds * 1e3:.3f} ms"],
    ]
    report(
        "autotune_vs_exhaustive",
        render_table(
            ["search", "kernel", "partition", "buffer", "fwd+adj"],
            rows,
            title=(
                f"pruned vs exhaustive search, 128x128 "
                f"({len(space)} candidates, ratio {ratio:.3f})"
            ),
        ),
        extra={
            "ratio": ratio,
            "within_noise": within_noise,
            "fast_when_chosen": fast_when_chosen,
            "candidates": len(space),
            "trials": len(outcome.trials),
        },
    )
    assert ratio <= 1.05 or within_noise or fast_when_chosen, (
        f"tuned config is {ratio:.3f}x the exhaustive best (> 1.05, "
        f"outside measurement noise, and was not competitive when "
        f"chosen): {outcome.best.candidate} vs {best_cand}"
    )
