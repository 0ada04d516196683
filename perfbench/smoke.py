"""Smoke test for the benchmark: each workload runs for about a second.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Checks that all six end-to-end metrics print with their units, that the
result line holds those BENCHMARK.json lists, that every op passes its check
(error_rate 0), that the traced run reports every per-layer metric, and that
the benchmark refuses to run without the source tree it measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# ladders runs by hand only (see README.md), so it is smoke-tested as well.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ladders"]
# Printed on every run, listed or not.
PRINTED = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
           ("latency_p90_ms", "ms"), ("error_rate", "ratio"), ("peak_rss_mb", "MB")]


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric
        assert isinstance(got["value"], (int, float))
    return lines[:-1]


def test_workloads_print_every_metric_with_unit():
    for workload in WORKLOADS:
        proc = _run(workload, 0)
        text = _check_result(proc, SPEC["end_to_end"])
        printed = {ln.split()[0]: ln.split()[1:] for ln in text if ln.startswith("  ")}
        for metric in SPEC["end_to_end"]:
            assert printed[metric["name"]][1] == metric["unit"], (workload, metric)
        for name, unit in PRINTED:
            assert printed[name][1] == unit, (workload, name)
        assert printed["error_rate"] == ["0", "ratio"], (workload, printed["error_rate"])


def test_traced_run_reports_every_layer():
    for workload in WORKLOADS:
        proc = _run(workload, 1)
        _check_result(proc, SPEC["per_layer"])


def test_refuses_to_run_without_source_tree():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("stream", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
