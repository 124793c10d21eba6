"""Fast smoke test of the benchmark, one generation per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (first: it puts the checkout's src on sys.path)
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from voxevo import tasks  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_generation(name):
    return dataclasses.replace(workloads.WORKLOADS[name], generations=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.measure(one_generation(name), workloads.DEFAULT_SEED, seconds=0, trace=trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 17
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_child_spans_fit_inside_their_parent():
    prep = workloads.prepare(one_generation("W5-modular-retrain"), workloads.DEFAULT_SEED)
    original = tasks.run_episode
    tracer = tracing.Tracer()
    record = workloads.run_once(prep, workloads.WORK_DIR / "smoke", tracer)
    shutil.rmtree(workloads.WORK_DIR / "smoke")
    assert tasks.run_episode is original, "the tracer left a wrapper installed"
    assert record.errors == []

    spans = tracer.arrays()
    calls = tracing.span_stats(tracer)
    assert calls["tasks.run_episode"]["calls"] == record.episodes
    assert calls["sim_core.step"]["calls"] == record.steps or record.diverged
    nested = spans["parent"] >= 0
    parent = spans["parent"][nested]
    assert (spans["start_ns"][nested] >= spans["start_ns"][parent]).all()
    assert (spans["end_ns"][nested] <= spans["end_ns"][parent]).all()
    assert (spans["self_ns"] >= 0).all()
    assert (spans["self_ns"] <= spans["duration_ns"]).all()
    assert tracing.self_time_violations(tracer) == 0


def test_refuses_to_run_without_the_program():
    bare = workloads.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "W5-fixed-evolve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
