"""The two-phase configuration search.

Phase 1 — **predict**: every candidate ``(kernel, partition_size,
buffer_bytes)`` is scored with the analytic performance model of
:mod:`repro.machine.perf_model`, fed a cache-simulated miss rate from
:mod:`repro.cachesim` (measured once on a row sample — it barely moves
across configurations).  This prunes the sweep to a handful of
candidates without timing anything.

Phase 2 — **trial**: the top-K predicted candidates, plus the best
predicted candidate of every kernel family, crossed with the
worker-count options, are built for real and timed with short
forward+adjoint trials.  The measured winner is then *refined* by
coordinate descent over its one-axis neighbours (other partition sizes
at its buffer, other buffer sizes at its partition), and the surviving
finalists get an interleaved playoff so a single lucky sample cannot
decide.  The model ranks, the measurement decides — mirroring how the
paper tunes Fig 10's partition/buffer heatmaps per machine, while
staying robust on hosts whose ranking the KNL prior mispredicts.

The measurement hook is injectable (``measure=``) so tests can drive
the search with a deterministic cost function; ``mode="predict"`` skips
phase 2 entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..machine import (
    DeviceSpec,
    KernelProfile,
    PerformanceModel,
    evaluate_configuration,
    get_device,
)
from ..obs import AUTOTUNE_CANDIDATES, AUTOTUNE_TRIALS, add_count, span
from ..sparse import CSRMatrix, build_buffered, build_ell

__all__ = [
    "Candidate",
    "ScoredCandidate",
    "TuneOutcome",
    "Autotuner",
    "DEFAULT_PARTITION_SIZES",
    "DEFAULT_BUFFER_SIZES",
]

DEFAULT_PARTITION_SIZES = (32, 64, 128, 256)
DEFAULT_BUFFER_SIZES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)
DEFAULT_KERNELS = ("csr", "buffered", "ell")

#: Buffer size recorded for kernels that have no buffer (csr/ell); the
#: OperatorConfig default, so applying such a record is a no-op there.
_NO_BUFFER = 32 * 1024

#: Rows sampled, and the access cap, for the cache-simulated miss rate.
MISS_SAMPLE_ROWS = 1024
MISS_MAX_ACCESSES = 200_000


@dataclass(frozen=True)
class Candidate:
    """One point of the configuration space."""

    kernel: str
    partition_size: int
    buffer_bytes: int

    def sort_key(self) -> tuple:
        """Deterministic tiebreak: simplest configuration first."""
        return (self.kernel, self.partition_size, self.buffer_bytes)


@dataclass
class ScoredCandidate:
    """A candidate with its model prediction and (optional) trial time."""

    candidate: Candidate
    predicted_seconds: float
    measured_seconds: float | None = None

    @property
    def decision_seconds(self) -> float:
        """What the selection compares: measured when present."""
        return (
            self.predicted_seconds
            if self.measured_seconds is None
            else self.measured_seconds
        )


@dataclass
class TuneOutcome:
    """Result of one search: the winner plus the full scored space."""

    best: ScoredCandidate
    mode: str
    predictions: list[ScoredCandidate] = field(default_factory=list)
    trials: list[ScoredCandidate] = field(default_factory=list)

    @property
    def candidates_considered(self) -> int:
        return len(self.predictions)


class Autotuner:
    """Predict-then-trial search over operator configurations.

    Parameters
    ----------
    device:
        Device name or :class:`~repro.machine.DeviceSpec` the analytic
        model predicts for.  The model only *ranks* candidates — the
        measured trials on this host decide — so the paper's KNL spec
        is an adequate default prior.
    kernels, partition_sizes, buffer_sizes:
        The swept axes.  csr/ell candidates collapse the buffer axis
        (they have no buffer).
    top_k:
        Number of predicted candidates that graduate to trials.
    trial_repeats:
        Timed forward+adjoint repetitions per trial; the minimum is
        kept (standard best-of-N noise rejection).
    measure:
        Optional ``measure(candidate, forward_layout, adjoint_layout)
        -> seconds`` override.  Tests inject a deterministic cost here;
        benchmarks can inject a higher-repeat timer.
    seed:
        Seed for the probe vectors and the miss-rate row sample.
    """

    def __init__(
        self,
        device: str | DeviceSpec = "KNL",
        kernels=DEFAULT_KERNELS,
        partition_sizes=DEFAULT_PARTITION_SIZES,
        buffer_sizes=DEFAULT_BUFFER_SIZES,
        top_k: int = 3,
        trial_repeats: int = 3,
        measure=None,
        seed: int = 0,
        smt: int = 1,
    ):
        self.device = get_device(device) if isinstance(device, str) else device
        self.kernels = tuple(kernels)
        self.partition_sizes = tuple(int(p) for p in partition_sizes)
        self.buffer_sizes = tuple(int(b) for b in buffer_sizes)
        self.top_k = int(top_k)
        self.trial_repeats = int(trial_repeats)
        self.measure = measure
        self.seed = int(seed)
        self.smt = int(smt)

    # -- phase 1: prediction -------------------------------------------

    def candidate_space(self) -> list[Candidate]:
        """The swept configurations."""
        out: list[Candidate] = []
        for kernel in self.kernels:
            if kernel == "csr":
                # Partition/buffer do not exist for the baseline kernel.
                out.append(Candidate("csr", 128, _NO_BUFFER))
            elif kernel == "ell":
                out.extend(
                    Candidate("ell", p, _NO_BUFFER) for p in self.partition_sizes
                )
            else:
                out.extend(
                    Candidate("buffered", p, b)
                    for p in self.partition_sizes
                    for b in self.buffer_sizes
                )
        return out

    def _miss_rate(self, matrix: CSRMatrix) -> float:
        """Cache-simulated gather miss rate, sampled once per search."""
        from ..cachesim import miss_rate_csr, sample_rows

        sample = sample_rows(matrix, MISS_SAMPLE_ROWS, seed=self.seed)
        stats = miss_rate_csr(
            sample,
            capacity_bytes=int(self.device.l2_bytes),
            line_bytes=int(self.device.cache_line_bytes),
            max_accesses=MISS_MAX_ACCESSES,
        )
        return float(stats.miss_rate)

    def _ell_padded_nnz(self, matrix: CSRMatrix, partition_size: int) -> int:
        """Padded element count of the ELL layout, without building it."""
        row_nnz = np.asarray(matrix.row_nnz())
        total = 0
        for start in range(0, matrix.num_rows, partition_size):
            chunk = row_nnz[start : start + partition_size]
            total += int(chunk.max()) * int(chunk.shape[0]) if chunk.size else 0
        return total

    def predict(self, matrix: CSRMatrix) -> list[ScoredCandidate]:
        """Model-score every candidate; sorted best (fastest) first."""
        miss_rate = self._miss_rate(matrix)
        model = PerformanceModel(self.device)
        scored: list[ScoredCandidate] = []
        for cand in self.candidate_space():
            if cand.kernel == "buffered":
                point = evaluate_configuration(
                    matrix,
                    self.device,
                    cand.partition_size,
                    cand.buffer_bytes,
                    smt=self.smt,
                    miss_rate=miss_rate,
                )
                if not point.valid or point.gflops <= 0:
                    continue
                seconds = 2.0 * matrix.nnz / (point.gflops * 1e9)
            elif cand.kernel == "ell":
                padded = self._ell_padded_nnz(matrix, cand.partition_size)
                profile = KernelProfile.csr_baseline(
                    nnz=max(padded, 1), miss_rate=miss_rate
                )
                seconds = model.projection_time(profile, smt=self.smt)
            else:
                profile = KernelProfile.csr_baseline(
                    nnz=max(matrix.nnz, 1), miss_rate=miss_rate
                )
                seconds = model.projection_time(profile, smt=self.smt)
            scored.append(ScoredCandidate(cand, float(seconds)))
        scored.sort(key=lambda s: (s.predicted_seconds, s.candidate.sort_key()))
        return scored

    # -- phase 2: measured trials --------------------------------------

    def _build_layouts(self, matrix: CSRMatrix, transpose: CSRMatrix, cand: Candidate):
        if cand.kernel == "buffered":
            return (
                build_buffered(matrix, cand.partition_size, cand.buffer_bytes),
                build_buffered(transpose, cand.partition_size, cand.buffer_bytes),
            )
        if cand.kernel == "ell":
            return (
                build_ell(matrix, cand.partition_size),
                build_ell(transpose, cand.partition_size),
            )
        return matrix, transpose

    def _time_candidate(
        self, matrix: CSRMatrix, transpose: CSRMatrix, cand: Candidate
    ) -> float:
        """Best-of-N forward+adjoint wall time of one built candidate."""
        forward, adjoint = self._build_layouts(matrix, transpose, cand)
        if self.measure is not None:
            return float(self.measure(cand, forward, adjoint))
        rng = np.random.default_rng(self.seed)
        dtype = matrix.val.dtype
        x = rng.random(matrix.num_cols).astype(dtype)
        y = rng.random(matrix.num_rows).astype(dtype)

        # The first call derives each layout's compiled view; a config
        # is judged by its steady state.
        forward.spmv(x)
        adjoint.spmv(y)
        best = float("inf")
        for _ in range(self.trial_repeats):
            t0 = time.perf_counter()
            forward.spmv(x)
            adjoint.spmv(y)
            best = min(best, time.perf_counter() - t0)
        return best

    # -- the search ----------------------------------------------------

    def tune(
        self, matrix: CSRMatrix, transpose: CSRMatrix, mode: str = "auto"
    ) -> TuneOutcome:
        """Run the search; ``mode="predict"`` skips the trial phase."""
        with span("autotune.search", mode=mode, nnz=matrix.nnz):
            predictions = self.predict(matrix)
            if not predictions:
                raise ValueError(
                    "autotuner has no valid candidates "
                    "(check kernels/partition_sizes/buffer_sizes)"
                )
            add_count(AUTOTUNE_CANDIDATES, len(predictions))
            if mode == "predict":
                return TuneOutcome(
                    best=predictions[0], mode=mode, predictions=predictions
                )

            # Trial the global top-K plus the best-predicted candidate
            # of every kernel family.  The model ranks *within* a
            # family well (same cost formula), but cross-family
            # calibration depends on how closely this host matches the
            # modeled device — so no family is pruned wholesale on the
            # model's word alone.
            chosen = list(predictions[: self.top_k])
            seen_kernels = {s.candidate.kernel for s in chosen}
            for scored in predictions[self.top_k :]:
                if scored.candidate.kernel not in seen_kernels:
                    chosen.append(scored)
                    seen_kernels.add(scored.candidate.kernel)

            predicted_by_cand = {
                s.candidate: s.predicted_seconds for s in predictions
            }
            trials: list[ScoredCandidate] = []
            measured: dict[Candidate, float] = {}

            def trial(cand: Candidate) -> float:
                if cand in measured:
                    return measured[cand]
                with span(
                    "autotune.trial",
                    kernel=cand.kernel,
                    partition_size=cand.partition_size,
                    buffer_bytes=cand.buffer_bytes,
                ):
                    seconds = float(self._time_candidate(matrix, transpose, cand))
                add_count(AUTOTUNE_TRIALS, 1)
                measured[cand] = seconds
                trials.append(
                    ScoredCandidate(
                        cand, predicted_by_cand.get(cand, float("nan")), seconds
                    )
                )
                return seconds

            for scored in chosen:
                trial(scored.candidate)

            def current_best() -> ScoredCandidate:
                return min(
                    trials, key=lambda t: (t.decision_seconds, t.candidate.sort_key())
                )

            # Coordinate-descent refinement around the trial winner:
            # re-trial its one-axis neighbours (other partition sizes at
            # its buffer, other buffer sizes at its partition) and
            # recenter while that improves.  This recovers from a model
            # whose within-family preference does not match this host,
            # at a handful of extra trials on the small swept grid.
            for _ in range(4):
                best = current_best()
                cand = best.candidate
                neighbours: list[Candidate] = []
                if cand.kernel in ("buffered", "ell"):
                    neighbours.extend(
                        replace(cand, partition_size=p)
                        for p in self.partition_sizes
                        if p != cand.partition_size
                    )
                if cand.kernel == "buffered":
                    neighbours.extend(
                        replace(cand, buffer_bytes=b)
                        for b in self.buffer_sizes
                        if b != cand.buffer_bytes
                    )
                fresh = [n for n in neighbours if n not in measured]
                if not fresh:
                    break
                for n in fresh:
                    trial(n)
                if current_best().candidate == cand:
                    break

            # Playoff: the surviving finalists are typically within
            # measurement noise of each other, and a single lucky
            # sample must not decide.  Re-measure the top few
            # interleaved and let each finalist keep its best time
            # across rounds.
            finalists = sorted(
                trials, key=lambda t: (t.decision_seconds, t.candidate.sort_key())
            )[:3]
            if len(finalists) > 1:
                for _ in range(2):
                    for scored in finalists:
                        seconds = float(
                            self._time_candidate(matrix, transpose, scored.candidate)
                        )
                        if seconds < scored.measured_seconds:
                            scored.measured_seconds = seconds

            best = current_best()
            return TuneOutcome(
                best=best, mode=mode, predictions=predictions, trials=trials
            )
