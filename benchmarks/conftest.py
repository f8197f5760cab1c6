"""Shared benchmark fixtures and the report helper.

Each benchmark regenerates one table or figure of the paper, printing a
paper-vs-measured comparison and writing it to ``benchmarks/out/`` so
EXPERIMENTS.md can reference the artifacts.  Scaled dataset instances
are built once per session (tracing dominates setup cost).

Every benchmark runs inside an ``repro.obs`` capture; ``report`` writes
a structured ``<name>.json`` next to each ``<name>.txt`` with the obs
counter totals and span summary accumulated up to the report call, so
downstream tooling can diff quantities (FLOPs, bytes, comm volume)
across commits instead of scraping text tables.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from repro import obs
from repro.core import OperatorConfig, get_dataset, preprocess
from repro.ordering import make_ordering
from repro.sparse import CSRMatrix
from repro.trace import build_projection_matrix

OUT_DIR = Path(__file__).parent / "out"

#: Linear scale factors used for the laptop-size instances of each
#: dataset (full sizes exceed this machine; see DESIGN.md Section 6).
SCALES = {
    "ADS1": 0.25,  # 90 x 64
    "ADS2": 0.25,  # 188 x 128
    "ADS3": 0.1875,  # 282 x 192
    "ADS4": 0.125,  # 300 x 256
    "RDS1": 0.125,  # 188 x 256
    "RDS2": 0.034,  # 154 x 384
}


def host_line() -> str:
    """One line saying where a measured table was written."""
    model = "unknown cpu"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"host: {model}, {os.cpu_count()} cpu, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


@pytest.fixture(autouse=True)
def bench_capture():
    """Observe every benchmark: spans + counters for the JSON report."""
    with obs.capture() as cap:
        yield cap


def _span_summary(cap: obs.Capture) -> dict:
    """Aggregate captured spans: {name: {count, total_seconds}}."""
    summary: dict[str, dict] = {}
    for record in cap.spans:
        entry = summary.setdefault(record.name, {"count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += record.duration
    return summary


@pytest.fixture()
def report(bench_capture, request):
    """Writer: report(name, text) -> benchmarks/out/<name>.{txt,json} + stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str, extra: dict | None = None) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        payload = {
            "bench": name,
            "test": request.node.nodeid,
            "counters": {
                c.name: {"unit": c.unit, "total": c.total, "events": c.events}
                for c in bench_capture.counters.values()
            },
            "spans": _span_summary(bench_capture),
        }
        if extra:
            payload["extra"] = extra
        (OUT_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}", file=sys.stderr)

    return _write


@pytest.fixture(scope="session")
def scaled_specs():
    """Scaled DatasetSpec per paper dataset."""
    return {name: get_dataset(name).scaled(factor) for name, factor in SCALES.items()}


def build_ordered(spec, ordering_name="pseudo-hilbert", min_tiles=16):
    """Trace a scaled dataset and return (matrix, tomo, sino) in order."""
    g = spec.geometry()
    n = g.grid.n
    tomo = make_ordering(ordering_name, n, n, min_tiles=min_tiles)
    sino = make_ordering(ordering_name, g.num_angles, g.num_channels, min_tiles=min_tiles)
    raw = build_projection_matrix(g, row_rank=sino.rank, col_rank=tomo.rank)
    return CSRMatrix.from_scipy(raw), tomo, sino


@pytest.fixture(scope="session")
def ads2_scaled(scaled_specs):
    """Scaled ADS2 in both row-major and pseudo-Hilbert order plus a
    buffered layout — the workhorse instance for Tables 4/6, Fig. 10."""
    from repro.sparse import build_buffered

    spec = scaled_specs["ADS2"]
    raw, _, _ = build_ordered(spec, "row-major")
    ordered, tomo, sino = build_ordered(spec)
    buffered = build_buffered(ordered, partition_size=128, buffer_bytes=8192)
    return {
        "spec": spec,
        "raw": raw,
        "ordered": ordered,
        "tomo": tomo,
        "sino": sino,
        "buffered": buffered,
    }
