"""The benchmark's own test: tiny runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is reported with its unit,
that the traced counts repeat exactly from one run to the next, and that a
planted wrong reference verdict shows up as a failed item.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"proofs": 6, "attack": 1, "models": 3}
NOT_COUNTS = {"s", "1/s"}


def run(workload: str, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--items", str(TINY[workload]), "--passes", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_reported_and_verdicts_correct(workload):
    code, result = run(workload, "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(workload):
    first = run(workload, "--trace", "1")[1]
    second = run(workload, "--trace", "1")[1]
    assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] not in NOT_COUNTS and m["name"] != "trace.overhead_ratio"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
           {n: second["metrics"][n]["value"] for n in counts}
    assert first["correct"] and second["correct"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_planted_wrong_verdict_raises_fail_ratio(workload):
    code, result = run(workload, "--trace", "0", "--plant-wrong-verdict")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
