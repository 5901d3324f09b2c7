"""Tests of the benchmark itself. Run from the repo root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_maskops()

import harness  # noqa: E402
from maskops import SuppressionResult  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
COUNT_METRICS = [
    name for name, unit in harness.PER_LAYER if unit not in ("ms",) and not name.startswith("bench.")
]


def _traced(name: str, seed: int):
    wl = harness.WORKLOADS[name]()
    tally, latencies, layers = harness.measure(wl, wl.build(seed, []), 0.01, trace=True)
    return tally, layers.metrics(wl, latencies, []), wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_and_digest_repeat_exactly_for_a_seed(name):
    tally_a, metrics_a, wl = _traced(name, seed=3)
    tally_b, metrics_b, _ = _traced(name, seed=3)
    assert tally_a.failed == tally_b.failed == 0
    assert {n: metrics_a[n] for n in COUNT_METRICS} == {n: metrics_b[n] for n in COUNT_METRICS}
    assert tally_a.digest(wl) == tally_b.digest(wl)
    assert metrics_a["suppression.suppress.candidates"] > 0


CORRUPT = {
    "pipeline": lambda out: out[:-1],
    "crowd_suppress": lambda out: SuppressionResult(
        out.kept_indices[:-1], out.updated_scores[:-1]
    ),
    "maskset_io": lambda out: (out[0].replace('"index": ', '"index": 9', 1), out[1]),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_outputs_are_counted_as_failed(name):
    wl = harness.WORKLOADS[name]()
    pool = wl.build(5, [])
    op = wl.op
    calls = []

    def corrupting_op(args, variant):
        out = op(args, variant)
        calls.append(len(calls) >= wl.distinct_keys and len(calls) % 2 == 1)
        return CORRUPT[name](out) if calls[-1] else out

    wl.op = corrupting_op
    tally, latencies, _ = harness.measure(wl, pool, 1.0, trace=False)
    assert tally.attempted == len(calls) == len(latencies) >= harness.MIN_SAMPLES
    assert tally.failed == sum(calls) > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_run_without_the_package_exits_2(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
