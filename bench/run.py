#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py                       # all four workloads, end to end
    python3 bench/run.py --trace 1             # the per-layer traced run
    python3 bench/run.py --workload stack16    # one workload, in this process
    python3 bench/run.py --quick               # 64x64-class sizes, smoke only
    python3 bench/run.py --runs 5 --out A.json # a set of runs for compare.py

With ``--workload`` the workload runs in this (fresh) process and the
last line of stdout is the result object the benchmark contract fixes.
Without it, each workload runs in its own subprocess, ``--runs`` times,
and the merged result is written to ``--out``.

End-to-end metrics (``--trace 0``) are measured with ``repro.obs``
inactive.  ``--trace 1`` is a separate run that puts the benchmark's own
spans around calls into each layer and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SECONDS = 24.0  # ``run_seconds`` in BENCHMARK.json
YARD_PASSES = 5  # yardstick passes before and after a traced run


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="budget of one end-to-end run; sampling cycles fill it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one repetition; never comparable with full")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (only without --workload)")
    parser.add_argument("--out", type=Path, help="result file (default: bench/out/...)")
    return parser.parse_args(argv)


def _default_out(args) -> Path:
    mode = "quick" if args.quick else "full"
    stem = args.workload or "all"
    return BENCH_DIR / "out" / f"{stem}-{mode}-trace{args.trace}-seed{args.seed}.json"


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _header(args, harness) -> dict:
    return {
        "schema": 1,
        "mode": "quick" if args.quick else "full",
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": harness.host_block(),
        "workloads": {},
    }


def run_one(args, spec) -> int:
    """Run one workload in this process; print its report and result line."""
    from bench import harness
    from bench.workloads import WORKLOADS

    declared = spec["per_layer" if args.trace else "end_to_end"]
    module = WORKLOADS[args.workload]
    doc = _header(args, harness)

    t0 = time.perf_counter()
    harness.warm_up()
    with harness.workspace() as workdir:
        ctx = harness.Context(args.seed, args.quick, args.seconds, workdir)
        if args.trace:
            # The traced run times layers, not samples: bracket it with
            # yardstick passes so its host factor is on record too.
            ctx.yard += [ctx.yardstick() for _ in range(YARD_PASSES)]
            values = module.trace(ctx)
            ctx.yard += [ctx.yardstick() for _ in range(YARD_PASSES)]
            values["bench.host_factor"] = ctx.host_factor()
        else:
            values = module.measure(ctx)
    wall = time.perf_counter() - t0

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values and name.startswith(module.BYPASSED):
            values[name] = 0.0  # the workload never enters this layer
        if name not in values:
            raise KeyError(f"{args.workload} did not produce declared metric {name!r}")
        value = float(values[name])
        ctx.checks.check(f"{name} is finite", math.isfinite(value), repr(value))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"{args.workload} produced undeclared metrics {undeclared}")

    checks = ctx.checks
    correct = checks.failed == 0
    size = module.SIZES[doc["mode"]]
    print(f"== {args.workload} [{doc['mode']}, trace={args.trace}, seed={args.seed}] "
          f"size={size} wall={wall:.1f}s")
    host = doc["host"]
    print(f"  host: {host['nproc']} x {host['cpu_model']}, load {host['loadavg_start'][0]:.2f}, "
          f"python {host['python']}, numpy {host['numpy']}, scipy {host['scipy']}, "
          f"commit {host['git_commit'][:10]}")
    print(harness.format_metrics(metrics, ctx.samples))
    print(f"  host factor {ctx.host_factor():.3f} (yardstick q1 over its quiet-host value, "
          f"n={len(ctx.yard)}; timing metrics are divided by it)")
    for note in ctx.notes:
        print(note)
    print(f"  failed_frac = {checks.failed}/{checks.attempted} "
          f"= {checks.failed / checks.attempted:.4f}")
    for record in checks.records:
        if not record["ok"]:
            print(f"  FAILED: {record['name']} ({record['detail']})")

    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    run = dict(result, samples=ctx.samples, yardstick_s=ctx.yard,
               host_factor=ctx.host_factor(), checks=checks.records,
               notes=ctx.notes, wall_s=wall)
    doc["workloads"][args.workload] = {"size": size, "runs": [run]}
    _write(args.out or _default_out(args), doc)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, workload_names) -> int:
    """Each workload in a fresh subprocess, ``--runs`` times; merge results."""
    from bench import harness

    doc = _header(args, harness)
    status = 0
    with harness.workspace() as workdir:
        for name in workload_names:
            for index in range(args.runs):
                part = workdir / f"{name}-{index}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(part),
                ] + (["--quick"] if args.quick else [])
                code = subprocess.run(command, check=False).returncode
                status = status or code
                if not part.exists():
                    print(f"{name}: run {index} exited with {code} and no result",
                          file=sys.stderr)
                    continue
                child = json.loads(part.read_text())["workloads"][name]
                merged = doc["workloads"].setdefault(name, {"size": child["size"], "runs": []})
                merged["runs"].extend(child["runs"])
    out = args.out or _default_out(args)
    _write(out, doc)
    print(f"result written to {out}")
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench/run.py: no program to measure under {ROOT} "
              "(expected src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from bench.harness import hermetic_env, load_spec

    hermetic_env()  # before numpy loads: the BLAS thread pins are read at import
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parse(argv, names)
    return run_one(args, spec) if args.workload else run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
