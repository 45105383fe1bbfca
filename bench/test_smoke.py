"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload at toy size, untraced and traced, and checks that every
metric BENCHMARK.json declares is printed with its unit, that the output
checks and both invariance probes ran, and that the harness refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def run_toy(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_prints_every_metric_and_runs_checks(workload, trace):
    proc = run_toy(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    report = json.loads(next(line[len("report: "):] for line in proc.stderr.splitlines()
                             if line.startswith("report: ")))
    names = report["check_names"]
    assert {"batch_partition_invariance", "padding_invariance", "labels",
            "sample.sdp", "sample.ancestor_chains", "sample.common_ancestors",
            "evaluate_matches_predictions", "reloaded_model_matches_memory"} <= set(names)
    assert result["attempted"] == len(names)
    # padding_invariance fails until the recurrence masks padding steps;
    # every other check must pass
    assert report["failed_checks"] == ["padding_invariance"]
    assert result["failed"] == 1
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_toy("ddi-ontology", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
