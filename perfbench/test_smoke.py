"""Smoke test of the benchmark at toy size (not part of the Tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload shrunk to a toy network, with tracing off and on, and
checks that each declared metric is printed with its unit, that the outputs
pass their checks, and that the recorded spans nest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_named_with_units(workload, trace):
    proc = bench("--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        spans = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{DEFAULT_SEED}-toy-spans.json")
                           .read_text())
        assert tracing.nesting_errors(spans) == []
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == [tracing.ROOT]
        assert {s["name"] for s in spans} >= {
            "channel.pair_geometry", "channel.sample_channels", "estimation.estimate",
            "beamforming.mmse_combiner", "evaluation.evaluate_schemes", "evaluation.bounds"}


def test_self_times_and_nesting_on_synthetic_spans():
    def span(id, parent, start, end, thread=1):
        return {"id": id, "name": f"s{id}", "parent": parent, "thread": thread,
                "start": start, "end": end, "counts": {}}

    # Two worker threads under one root: their children overlap in time.
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0, thread=2),
             span(2, 0, 2.0, 8.0, thread=3), span(3, 1, 2.0, 3.0, thread=2)]
    assert tracing.self_times(spans) == [3.0, 4.0, 6.0, 1.0]
    assert tracing.nesting_errors(spans) == []
    # Same-thread siblings that overlap, and a child outside its parent.
    bad = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 4.0, 6.0),
           span(3, 1, 4.5, 7.0)]
    assert len(tracing.nesting_errors(bad)) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "kappa_desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
