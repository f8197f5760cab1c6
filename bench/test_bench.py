"""Self-checks of the benchmark (``pytest bench -q``; not part of tier-1).

Every test drives ``bench/run.py`` the way the driver does — one
workload per fresh subprocess — in ``--quick`` mode.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT))

from bench import compare  # noqa: E402
from bench.harness import (  # noqa: E402
    Context,
    Yardstick,
    load_spec,
    quantile,
    tail_percentile,
)

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Metrics that must repeat exactly for one seed (counts, file sizes and
#: the arithmetic results; never a time).
EXACT = {
    0: ("plan_mb", "rel_residual", "rmse"),
    1: ("trace.nnz", "cache.entry_mb", "core.spmv_calls", "solvers.iterations",
        "dataio.bytes_read", "dataio.bytes_written", "dist.comm_bytes_per_iter",
        "dist.comm_msgs_per_iter", "dist.max_rank_nnz_share", "topology.intra_bytes",
        "topology.inter_bytes", "topology.inter_msgs", "service.batches",
        "service.journal_records"),
}


def _run(workload: str, out: Path, seed: int = 0, trace: int = 0, cwd: Path = ROOT):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--quick", "--out", str(out)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Quick runs of every workload: (trace, seed, repeat) -> parsed output."""
    tmp = tmp_path_factory.mktemp("bench")
    runs = {}
    for workload in WORKLOADS:
        for trace, seed, repeat in ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)):
            out = tmp / f"{workload}-{trace}-{seed}-{repeat}.json"
            proc = _run(workload, out, seed=seed, trace=trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            runs[workload, trace, seed, repeat] = {
                "line": json.loads(proc.stdout.strip().splitlines()[-1]),
                "doc": json.loads(out.read_text()),
                "path": out,
            }
    return runs


def test_contract_file():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all("bound" not in m for m in SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_once(results, workload, trace):
    line = results[workload, trace, 0, 0]["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, f"{metric['name']} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_and_seed_changes_inputs(results, workload):
    first = results[workload, 1, 0, 0]["line"]["metrics"]
    again = results[workload, 1, 0, 1]["line"]["metrics"]
    for name in EXACT[1]:
        assert first[name]["value"] == again[name]["value"], name
    seed0 = results[workload, 0, 0, 0]["line"]["metrics"]
    seed1 = results[workload, 0, 1, 0]["line"]["metrics"]
    assert seed0["plan_mb"]["value"] == seed1["plan_mb"]["value"]
    assert seed0["rel_residual"]["value"] != seed1["rel_residual"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_entered_and_bypassed(results, workload):
    """A workload's bypassed layers read 0; the ones it exists for do not."""
    metrics = results[workload, 1, 0, 0]["line"]["metrics"]
    entered = {
        "slice256": ("core.fwd_ms", "cache.store_s"),
        "stack16": ("pipeline.solve_s", "dataio.bytes_read"),
        "cluster4": ("dist.comm_s", "topology.inter_msgs"),
        "service8": ("service.ack_ms", "service.batches"),
    }[workload]
    assert all(metrics[name]["value"] > 0 for name in entered)
    others = {"pipeline.solve_s", "dist.comm_s", "service.ack_ms"} - set(entered)
    assert all(metrics[name]["value"] == 0 for name in others)


def test_compare_verdicts(results, tmp_path, capsys):
    a = results["cluster4", 0, 0, 0]
    assert compare.main([str(a["path"]), str(a["path"])]) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out

    slower = json.loads(a["path"].read_text())
    for run in slower["workloads"]["cluster4"]["runs"]:
        run["metrics"]["solve_s"]["value"] *= 2
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    assert compare.main([str(a["path"]), str(slow_path)]) == 1

    with pytest.raises(SystemExit):  # different seeds never compare
        compare.main([str(a["path"]), str(results["cluster4", 0, 1, 0]["path"])])


def test_verdict_rules():
    assert compare.verdict([1.0, 1.0, 1.0], [1.05], "lower", 0.1) == "ok"
    assert compare.verdict([1.0, 1.0, 1.0], [1.2], "lower", 0.1) == "regressed"
    assert compare.verdict([1.0, 1.0, 1.0], [0.8], "higher", 0.1) == "regressed"
    noisy = [0.8, 1.0, 1.2, 1.4]
    assert compare.verdict(noisy, [1.1], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [0.5, 0.6], "lower", 0.1) == "ok"
    assert compare.verdict([1.0], [2.0], "lower", None) == "-"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(20)) == (50.0, 9.0)
    percentile, value = tail_percentile(range(100))
    assert (percentile, value) == (90.0, 89.0)


def test_quantile_stays_inside_the_samples():
    assert quantile([3.0], 0.25) == 3.0
    assert quantile([2.0, 1.0], 0.25) == 1.25
    assert quantile([4, 1, 3, 2, 5], 0.5) == 3.0


def test_timing_metrics_are_divided_by_the_host_factor(tmp_path):
    ctx = Context(seed=0, quick=True, seconds=1.0, workdir=tmp_path)
    assert ctx.time("solve_s", lambda: 7) == 7  # a yardstick pass, then the call
    assert len(ctx.yard) == len(ctx.samples["solve_s"]) == 1 and ctx.checks.attempted == 1
    ctx.samples["solve_s"] = [2.0, 2.0, 2.0]
    ctx.yard = [2e-3 * Yardstick.NOMINAL_MS] * 3  # a host twice as slow as the reference
    assert ctx.host_factor() == pytest.approx(2.0)
    assert ctx.metric("solve_s") == pytest.approx(1.0)


def test_cycles_fill_the_budget_but_run_at_least(tmp_path):
    ctx = Context(seed=0, quick=False, seconds=0.0, workdir=tmp_path)
    assert list(ctx.cycles(at_least=3, reserve=0.0)) == [0, 1, 2]  # budget already spent
    ctx.seconds = 3600.0
    assert list(ctx.cycles(at_least=1, reserve=0.0, at_most=5)) == [0, 1, 2, 3, 4]
    ctx.quick = True
    assert list(ctx.cycles(at_least=4, reserve=0.0)) == [0, 1]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _run("slice256", tmp_path / "out.json", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip() and not (tmp_path / "out.json").exists()
