"""Smoke tests of the benchmark at the tiny shapes.

    python -m pytest perfbench/tests -q

Each test runs ``run.py`` in a subprocess, as the benchmark is run, and
reads the JSON line it ends with.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _quality(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("quality "))
    return json.loads(line[len("quality "):])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_prints_every_metric_and_repeats(workload):
    text, first = _result(_run(workload, 0))
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 2
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        assert first["metrics"][m["name"]]["value"] > 0
        assert f"  {m['name']} " in text
    assert "failed_runs 0 count" in text
    quality = _quality(text)
    assert {"rmse_final", "relative_error"} <= set(quality)
    text2, _ = _result(_run(workload, 0))
    assert _quality(text2) == quality


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_fires_every_span_and_counts_repeat(workload):
    text, first = _result(_run(workload, 1))
    assert first["correct"], text  # a span that never fired fails the run
    assert [n for n in first["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    assert first["metrics"]["trace.overhead_frac"]["value"] > 0
    assert first["metrics"]["solver.iterations"]["value"] == (
        WORKLOADS[workload].shaped("tiny").max_iters
        * (2 if workload == "pca" else 1))
    _, second = _result(_run(workload, 1))
    counts = [n for n in first["metrics"]
              if n.endswith((".calls", ".pairs", ".bytes", "_frac", "iterations", "written"))
              and n != "trace.overhead_frac"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ellipses", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unfired_expected_span_fails_the_traced_call():
    from dataclasses import replace

    sys.path.insert(0, str(ROOT / "src"))
    import run

    wl = replace(WORKLOADS["ellipses"].shaped("tiny"),
                 expected_spans=WORKLOADS["ellipses"].expected_spans + ("kernels.missing",))
    res = run.measure(wl, 0, 0.1, True, "tiny", log=lambda msg: None)
    traced = [facts for is_traced, facts in res["calls"] if is_traced]
    untraced = [facts for is_traced, facts in res["calls"] if not is_traced]
    assert traced and all("span kernels.missing never fired" in f.problems for f in traced)
    assert untraced and not any(f.problems for f in untraced)


def test_recorded_pca_denoising_claim():
    import checks

    denoised, noisy = checks.pca_claim(checks.load_expected())
    assert denoised < noisy
