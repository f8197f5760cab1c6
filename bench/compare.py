#!/usr/bin/env python3
"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate.  One row per
workload x metric with both medians, their quartiles over the runs in
each file, the ratio ``B / A`` and the metric's regression bound from
``BENCHMARK.json``.  Verdicts, per the choosing-metrics rules:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — A's own run-to-run spread (quartile distance over its
  median) is wider than the bound, and the runs overlap: the files cannot
  tell.  (If every run of B beats every run of A it is ``ok`` regardless.)

Files with different seeds, modes, trace settings or sizes are refused:
their numbers do not measure the same thing.  Per-layer metrics (traced
files) have no bound and get no verdict — both values and the ratio are
printed.  Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NoReturn

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import load_spec, median, quartiles


def _refuse(message: str) -> NoReturn:
    print(f"compare: refusing to compare: {message}", file=sys.stderr)
    raise SystemExit(2)


def _values(workload: dict, name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in workload["runs"]]


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """ok / regressed / unresolved for one metric on one workload."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    base = median(a)
    worse_by = sign * (median(b) - base) / abs(base)
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / abs(base)
    if spread > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if b_always_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> tuple[list[str], dict[str, int]]:
    for key in ("seed", "mode", "trace"):
        if doc_a[key] != doc_b[key]:
            _refuse(f"{key} differs ({doc_a[key]!r} vs {doc_b[key]!r})")
    if set(doc_a["workloads"]) != set(doc_b["workloads"]):
        _refuse("the files hold different workloads")
    declared = spec["per_layer" if doc_a["trace"] else "end_to_end"]

    rows = [
        f"{'workload':<9} {'metric':<30} {'unit':<7} {'A median [q1, q3] n':<38} "
        f"{'B median [q1, q3] n':<38} {'B/A':>7} {'bound':>6}  verdict"
    ]
    counts = {"ok": 0, "regressed": 0, "unresolved": 0, "-": 0}
    for name, work_a in doc_a["workloads"].items():
        work_b = doc_b["workloads"][name]
        if work_a["size"] != work_b["size"]:
            _refuse(f"{name} sizes differ ({work_a['size']} vs {work_b['size']})")
        for entry in declared:
            a, b = _values(work_a, entry["name"]), _values(work_b, entry["name"])
            bound = entry.get("bound")
            outcome = verdict(a, b, entry["better"], bound)
            counts[outcome] += 1
            cells = []
            for values in (a, b):
                q1, q3 = quartiles(values)
                cells.append(f"{median(values):.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            ratio = median(b) / median(a) if median(a) else float("nan")
            rows.append(
                f"{name:<9} {entry['name']:<30} {entry['unit']:<7} {cells[0]:<38} "
                f"{cells[1]:<38} {ratio:>7.3f} "
                f"{'' if bound is None else format(bound, '.0%'):>6}  {outcome}"
            )
    return rows, counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    rows, counts = compare(doc_a, doc_b, load_spec())
    print(f"base A = {argv[0]}  candidate B = {argv[1]}  (ratios are B / A)")
    print("\n".join(rows))
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
