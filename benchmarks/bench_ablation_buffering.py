"""Ablation — buffer size vs staging traffic and cache behaviour.

DESIGN.md's design-choice list includes the buffer capacity trade-off
of paper Section 3.3.2: small buffers mean many stages (more map
duplication — each partition footprint element is staged once per
partition regardless, but fragmented stages add sync overhead), while
large buffers leak out of L1.  Here we build the real buffered
structures across capacities and measure (a) stage counts, (b) map
traffic, (c) the staging stream's cache behaviour, (d) the actual
kernel numerics cost in Python — exposing the flat-then-cliff shape
that makes 8-32 KB the sweet spot.
"""

import time

import numpy as np

from repro.cachesim import miss_rate_buffered
from repro.sparse import build_buffered
from repro.utils import render_table

BUFFER_SIZES = [256, 1024, 4096, 8192, 32768, 131072]
CACHE_BYTES = 32 * 1024  # an L1-class cache for the staging stream


def test_ablation_buffer_capacity(report, ads2_scaled, benchmark):
    matrix = ads2_scaled["ordered"]
    x = np.random.default_rng(0).random(matrix.num_cols).astype(np.float32)

    rows = []
    stages = []
    map_lengths = []
    for buffer_bytes in BUFFER_SIZES:
        buffered = build_buffered(matrix, 128, buffer_bytes)
        miss = miss_rate_buffered(buffered, CACHE_BYTES).miss_rate
        t0 = time.perf_counter()
        buffered.spmv(x)
        elapsed = time.perf_counter() - t0
        stages.append(buffered.num_stages)
        map_lengths.append(int(buffered.map.shape[0]))
        rows.append(
            [
                f"{buffer_bytes // 1024 or buffer_bytes / 1024:g} KB",
                buffered.num_stages,
                f"{buffered.stages_per_partition().mean():.1f}",
                f"{map_lengths[-1]:,}",
                f"{miss:.1%}",
                f"{elapsed * 1e3:.1f} ms",
            ]
        )

    table = render_table(
        ["Buffer", "Total stages", "Stages/partition", "Map entries",
         "Staging miss rate", "Python kernel"],
        rows,
        title="Ablation: buffer capacity (scaled ADS2, 128-row partitions)",
    )
    report("ablation_buffering", table)

    # Shape assertions:
    # - stage count decreases monotonically with capacity, reaching one
    #   stage per partition once the footprint fits;
    assert all(b <= a for a, b in zip(stages, stages[1:]))
    parts = build_buffered(matrix, 128, BUFFER_SIZES[-1]).partitions.num_partitions
    assert stages[-1] == parts
    # - map traffic is capacity-independent (each footprint element is
    #   staged exactly once per partition);
    assert max(map_lengths) == min(map_lengths)
    # - the staging stream stays cache-friendly at every capacity.
    buffered = build_buffered(matrix, 128, 8192)
    assert miss_rate_buffered(buffered, CACHE_BYTES).miss_rate < 0.5

    benchmark(build_buffered, matrix, 128, 8192)
