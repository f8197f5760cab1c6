"""Shared plumbing of the whole-system benchmark.

Everything a workload needs that is not the workload itself: the
hermetic environment, the per-run scratch directory, the host-speed
yardstick and the sampling budget, sample statistics, correctness-check
bookkeeping, the host block, and the table printer.
Nothing here touches ``repro`` at import time — ``run.py`` pins the
thread environment first and only then lets numpy load.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

#: Ambient knobs that change what the library does; a benchmark run
#: must not inherit them from whoever launched it.
_THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def hermetic_env() -> None:
    """Scrub every ``REPRO_*`` variable, pin BLAS/OpenMP to one thread and
    the process to one CPU.

    Must run before numpy is imported: the thread pins are read when the
    BLAS library loads.  Every workload is serial, so one CPU loses no
    parallelism; it keeps the yardstick and the work it is compared with
    on the same core, and the hand-offs between the library's own threads
    (service scheduler, conveyor) off the guest's cross-CPU wake-ups,
    which cost milliseconds when the host is busy.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in _THREAD_PINS:
        os.environ[name] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_spec() -> dict:
    """The benchmark contract (``BENCHMARK.json`` at the repo root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ----------------------------------------------------------


def median(samples) -> float:
    return float(statistics.median(samples))


def quantile(samples, q: float) -> float:
    """Quantile ``q`` of the samples, interpolated between order
    statistics and never outside them (a lone sample is every quantile)."""
    ordered = sorted(float(v) for v in samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(samples) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a lone
    sample is its own quartiles."""
    samples = list(samples)
    if len(samples) < 2:
        return float(samples[0]), float(samples[0])
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q3)


def tail_percentile(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than twenty samples no
    percentile above the median qualifies and the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 50.0, median(ordered)
    index = n - 11  # ten samples lie strictly beyond this one
    return 100.0 * (index + 1) / n, float(ordered[index])


# -- measurement ---------------------------------------------------------


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call; the result is returned so the
    caller consumes it (nothing lazy escapes the timed region)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def file_mb(path) -> float:
    return Path(path).stat().st_size / 1e6


@contextlib.contextmanager
def workspace():
    """One scratch directory per run, inside the checkout, removed on exit.

    Every cache, spool and stack of a run lives under it, so a run never
    sees (or leaves) state in ``~/.cache/repro`` or a previous run.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def warm_up() -> None:
    """A 32x32 preprocess + solve before any timer starts.

    Pays the one-off costs (imports, numpy/scipy first-call set-up) that
    would otherwise land in the first timed sample.
    """
    import numpy as np

    from repro import preprocess, reconstruct
    from repro.geometry import ParallelBeamGeometry

    geometry = ParallelBeamGeometry(32, 32)
    operator, _ = preprocess(geometry)
    sinogram = operator.project_image(np.ones((32, 32)))
    reconstruct(sinogram, geometry, operator=operator, iterations=3)


# -- correctness bookkeeping ---------------------------------------------


@dataclass
class Checks:
    """Counts operations attempted and failed (``failed_frac`` = ratio).

    Timed operations are counted with :meth:`attempt`; correctness
    checks with :meth:`check`.  A failed check is a failed operation.
    """

    attempted: int = 0
    failed: int = 0
    records: list[dict] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        self.failed += not ok
        self.records.append({"name": name, "ok": ok, "detail": detail})
        return ok

    def below(self, name: str, value: float, ceiling: float) -> bool:
        """Check ``value <= ceiling`` (NaN fails)."""
        return self.check(name, value <= ceiling, f"{value:.6g} <= {ceiling:g}")


class Yardstick:
    """A fixed numpy workload timed beside every sample: the host's speed.

    The reference host is a shared guest whose speed changes by up to 2x
    for minutes at a time (see README, *Noise*), so a wall time alone
    says as much about the neighbours as about the program.  One pass of
    this yardstick — a whole-array gather/multiply/segment-sum and a loop
    of small fused updates, the two styles the library's kernels are
    written in, on fixed synthetic arrays — is timed before every sample,
    and each timing metric is reported as *its* quantile over the run
    divided by the *same* quantile of the yardstick, times
    :data:`NOMINAL_MS`: seconds as the quiet reference host would read
    them.  The yardstick is the benchmark's own code; no change to the
    program can move it.
    """

    #: One pass on the quiet reference host, lower quartile (ms).
    NOMINAL_MS = 22.0

    NNZ = 4_000_000
    COLS = 16_384
    ROWS = 4_096
    SLOTS = 400

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20190817)  # fixed: not an input of the program
        band = np.arange(self.NNZ) // 64 * 7
        self._ind = ((band + rng.integers(0, 512, self.NNZ)) % self.COLS).astype(np.int32)
        self._val = rng.random(self.NNZ).astype(np.float32)
        self._displ = np.arange(0, self.NNZ, 200)
        self._x = rng.random(self.COLS).astype(np.float32)
        self._slot_ind = rng.integers(0, self.COLS, (self.SLOTS, self.ROWS)).astype(np.int32)
        self._slot_val = rng.random((self.SLOTS, self.ROWS)).astype(np.float32)
        self._np = np
        self()  # first pass pays the page faults

    def __call__(self) -> float:
        """Seconds of one pass."""
        np = self._np
        t0 = time.perf_counter()
        np.add.reduceat(self._val * self._x[self._ind], self._displ)
        acc = np.zeros(self.ROWS, dtype=np.float32)
        for w in range(self.SLOTS):
            acc += self._slot_val[w] * self._x[self._slot_ind[w]]
        return time.perf_counter() - t0


#: The quantile a timing metric reports.  Neighbours only ever add time,
#: so the lower quartile of many short samples is the steadiest estimate
#: of the program's own cost (measured: 1-3 % between 30 s windows where
#: the median moves 3-30 %).
QUIET_QUANTILE = 0.25


@dataclass
class Context:
    """What a workload receives: the seed, the mode, its scratch dir, and
    the clock that every timed sample goes through."""

    seed: int
    quick: bool
    seconds: float
    workdir: Path
    checks: Checks = field(default_factory=Checks)
    #: metric name -> raw wall-time samples (s) behind the reported value
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: free-form lines (accounting tables, percentiles) for the report
    notes: list[str] = field(default_factory=list)
    yardstick: Yardstick = field(default_factory=Yardstick)
    #: yardstick passes (s), one before every timed sample
    yard: list[float] = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def time(self, name: str, fn, *args, span=None, **kwargs):
        """One timed sample of metric ``name``: a yardstick pass, then
        ``fn(*args, **kwargs)`` on the clock — inside ``span``, a context
        manager, when the traced run wants the call rooted in one.
        Returns ``fn``'s result."""
        self.yard.append(self.yardstick())
        with span or contextlib.nullcontext():
            seconds, result = timed(fn, *args, **kwargs)
        self.samples.setdefault(name, []).append(seconds)
        self.checks.attempt()
        return result

    def cycles(self, at_least: int, reserve: float, at_most: int = 1000):
        """Cycle numbers while the ``--seconds`` budget, less ``reserve``
        seconds for what follows the loop, still holds a cycle as long as
        the last one — but never fewer than ``at_least``.  Quick mode
        runs ``min(at_least, 2)`` cycles."""
        if self.quick:
            at_least = at_most = min(at_least, 2)
        last, count = 0.0, 0
        while count < at_most and (
            count < at_least or self.elapsed() + 1.1 * last < self.seconds - reserve
        ):
            t0 = time.perf_counter()
            yield count
            last = time.perf_counter() - t0
            count += 1

    def host_factor(self, q: float = QUIET_QUANTILE) -> float:
        """How much slower than the quiet reference host this run's host
        was: the yardstick's quantile over its nominal value."""
        return 1e3 * quantile(self.yard, q) / Yardstick.NOMINAL_MS

    def metric(self, name: str, q: float = QUIET_QUANTILE) -> float:
        """Quantile ``q`` of ``name``'s samples in seconds of the quiet
        reference host (divided by the same quantile of the yardstick)."""
        return quantile(self.samples[name], q) / self.host_factor(q)


def pick_size(sizes: dict, ctx: Context) -> dict:
    return sizes["quick" if ctx.quick else "full"]


# -- host block ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    """Commit id read straight from ``.git`` (the driver's checkout has
    none, and no subprocess is worth starting for a label)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def host_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_sizes": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- reporting -----------------------------------------------------------


def format_metrics(metrics: dict, samples: dict) -> str:
    """One row per metric: name, value, unit — and, where the value comes
    from timed in-run samples, their count and raw wall-time quartiles."""
    width = max(len(name) for name in metrics)
    lines = []
    for name, entry in metrics.items():
        line = f"  {name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}"
        values = samples.get(name, ())
        if values:
            q1, q2, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
            line += f"   (n={len(values)}; raw wall s: q1 {q1:.4g}, median {q2:.4g}, q3 {q3:.4g})"
        lines.append(line)
    return "\n".join(lines)
