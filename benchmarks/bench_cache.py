"""Plan-cache acceptance — warm vs cold preprocessing at 256x256.

The MemXCT argument (paper Table 5) is that preprocessing is paid once
and amortized over all slices; the persistent plan cache extends the
amortization across *processes*.  This benchmark measures that claim
end-to-end on a 256x256 parallel-beam geometry:

* **cold** — ``preprocess(cache=dir)`` on an empty cache: all four
  stages run, then the plan is stored;
* **warm** — the same call again: the stored plan is loaded and every
  stage is skipped.  Reported as the best of three runs, i.e. the
  steady-state hit cost once the page cache has absorbed the freshly
  written entry (the beamline regime: thousands of hits per store).

Acceptance: warm must be at least 9.9x faster than cold — half the
lowest of ten fresh runs at PR 24 (19.9-25.9x: cold 3.4-4.3 s, warm
0.155-0.177 s, 323 MB entry mapped and CRC'd at 1.8-2.1 GB/s).  The
floor was 10x when a cold build took 214 s, 7.5x when a warm hit
copied the entry out of the archive (0.36-0.40 s) and 13x while a cold
build still wrote the plan a second time (3.9-5.1 s cold, 26.9-36.2x);
every PR that moves either side moves this ratio, so it is re-derived,
not defended.  PR 24 moved both: the cold build assembles the entry in
place (about 1.5x faster), and an entry filled through its map sits in
4 KiB page-cache pages, which a hit maps and CRCs ~12 % slower than
the large folios ``write()`` leaves behind.
"""

import time

from repro.core import preprocess
from repro.geometry import ParallelBeamGeometry

from conftest import host_line

MIN_SPEEDUP = 9.9
SIZE = 256


def test_warm_cache_speedup(report, tmp_path):
    cachedir = tmp_path / "plans"
    g = ParallelBeamGeometry(SIZE, SIZE)

    t0 = time.perf_counter()
    cold_op, cold_report = preprocess(g, cache=cachedir)
    cold = time.perf_counter() - t0
    assert cold_report.cache_hit is False
    cold_nnz = cold_op.matrix.nnz
    # Free the cold operator so the warm runs measure the hit path, not
    # memory pressure from holding two plans at once.
    del cold_op

    warm_times = []
    warm_nnz = None
    for _ in range(3):
        t0 = time.perf_counter()
        warm_op, warm_report = preprocess(g, cache=cachedir)
        warm_times.append(time.perf_counter() - t0)
        assert warm_report.cache_hit is True
        warm_nnz = warm_op.matrix.nnz
        del warm_op
    warm = min(warm_times)

    entry_bytes = sum(p.stat().st_size for p in cachedir.glob("*.npz"))
    speedup = cold / warm
    load_mb_per_s = entry_bytes / 1e6 / warm
    lines = [
        f"plan cache warm-vs-cold, {SIZE}x{SIZE} parallel-beam geometry",
        f"  cold preprocess + store : {cold:8.3f} s",
        f"  warm hit (best of 3)    : {warm:8.3f} s",
        f"  speedup                 : {speedup:8.1f} x  (acceptance >= {MIN_SPEEDUP:g}x)",
        f"  cache entry size        : {entry_bytes / 1e6:8.1f} MB",
        f"  warm load rate          : {load_mb_per_s:8.0f} MB/s  (map + one CRC pass)",
        host_line(),
    ]
    report(
        "cache_warm_vs_cold",
        "\n".join(lines),
        extra={
            "size": SIZE,
            "cold_seconds": cold,
            "warm_seconds": warm,
            "warm_runs": warm_times,
            "speedup": speedup,
            "entry_bytes": entry_bytes,
            "load_mb_per_s": load_mb_per_s,
            "min_speedup": MIN_SPEEDUP,
        },
    )

    # The loaded plan is the same operator, not a re-trace.
    assert warm_nnz == cold_nnz
    assert speedup >= MIN_SPEEDUP, (
        f"warm cache only {speedup:.1f}x faster than cold "
        f"(cold {cold:.2f}s, warm {warm:.2f}s)"
    )
