"""Smoke test of the benchmark: every workload at tiny size, plain and traced.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines, workload, name, unit):
    """The value printed for ``name`` with ``unit`` on ``workload``'s line."""
    for line in lines:
        fields = line.split()
        if fields[:2] == [workload, name] and line.endswith(" " + unit):
            return float(fields[2])
    raise AssertionError(f"{workload}: no line for {name} [{unit}]")


def test_every_end_to_end_metric_printed_with_unit_and_nothing_fails():
    lines, result = _run("all", trace=0)
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        assert _printed(lines, workload, "fail_frac", "ratio") == 0.0
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{workload}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0
            assert _printed(lines, workload, m["name"], m["unit"]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_counts_repeat_exactly(workload):
    lines, first = _run(workload, trace=1)
    _, second = _run(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        _printed(lines, workload, m["name"], m["unit"])
        if m["unit"] in ("count", "B"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
