"""Benchmark of voxevo's evolve and retrain loops.

    python3 perfbench/run.py --workload W5-fixed-evolve --seed 7 --seconds 20 --trace 0

Runs one workload (see README.md) from the root of a checkout: set-up in
fresh processes, then identical evolutionary runs of the seeded workload
for about ``--seconds`` seconds, each checked for correctness. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics
taken from the traced ones. ``--workload all`` runs every workload in its
own process and prints all their metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (episodes)
and ``metrics``. Outputs, spans and results go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import host

try:
    import workloads
    import tracer as tracing
except ImportError as exc:  # the checkout has no usable src/voxevo
    workloads = tracing = None
    IMPORT_ERROR = exc

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured interval per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print(f"perfbench: cannot load voxevo from this checkout: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(args)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes, and the host probes taken around them.

    Set-up is reported as measured: it is mostly imports, which read and
    unmarshal files, and the compute probe does not track their speed.
    """
    seconds, probes = [], [host.probe_seconds()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
        probes.append(host.probe_seconds())
    return seconds, probes


def run_workload(args) -> int:
    print("environment:", json.dumps(host.environment()))
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    name = args.workload
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    for metric, why in result["unmeasured"].items():
        print(f"{name} {metric}: not measured, {why}")
    if result["untraced_rates"]:
        print(
            f"{name} as measured: {len(result['untraced_rates'])} runs, "
            f"{statistics.median(result['untraced_rates']):.4g} generations/s, "
            f"probe {result['probe_ms']:.4g} ms"
        )
    for message in result["errors"]:
        print("check failed:", message, file=sys.stderr)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def measure(workload, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run the workload for about ``seconds``, check it, and return
    the metrics with everything behind them (also written to a results file)."""
    setup_seconds, setup_probes = measure_setup(workload.name, seed)
    prep = workloads.prepare(workload, seed)
    tag = f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
    out_dir = workloads.WORK_DIR / "runs" / tag
    tracer = tracing.Tracer() if trace else None
    untraced, traced, errors = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        run_start = time.perf_counter()
        try:
            record = workloads.run_once(prep, out_dir, tracer if trace_this else None)
        except Exception:
            # a crash fails the whole invocation; nothing after it is measured
            traceback.print_exc()
            errors.append(f"run {len(untraced) + len(traced)} raised")
            attempted += 1
            failed += 1
            break
        attempted += record.episodes
        failed += record.failures
        if record.errors:
            errors.extend(record.errors)
            failed += record.episodes - record.failures
        (traced if trace_this else untraced).append(record)
        enough = untraced and (tracer is None or traced)
        run_seconds = time.perf_counter() - run_start
        if record.errors or (enough and time.perf_counter() - start + run_seconds > seconds):
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    runs = untraced + traced
    if runs:
        fingerprints = {json.dumps(r.fingerprint(), sort_keys=True) for r in runs}
        if len(fingerprints) > 1:
            errors.append(f"runs of one seed disagree: {sorted(fingerprints)}")
        errors.extend(workloads.check_against_expected(prep, runs[0].fingerprint()))
    if tracer is not None and tracing.self_time_violations(tracer):
        errors.append("a span's children outlast it")
    if errors:
        failed = max(failed, 1)

    unmeasured = {}
    if trace and untraced and traced:
        stats = tracing.span_stats(tracer)
        metrics = per_layer_metrics(untraced, traced, tracer, stats)
        unmeasured = {f"{name}.us_p50": "never called on this workload" for name, st in stats.items() if not st["calls"]}
        tracer.write(workloads.WORK_DIR / "spans" / f"{tag}.npz")
    elif trace:
        metrics = {}
    else:
        metrics = end_to_end_metrics(workload, untraced, setup_seconds, attempted, failed)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": host.environment(),
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "unmeasured": unmeasured,
        "errors": errors,
        "setup_s": {"seconds": setup_seconds, "probes": setup_probes},
        "untraced_rates": [workload.generations / r.seconds for r in untraced],
        "probe_ms": statistics.median(p for r in runs for p in r.probes) * 1e3 if runs else 0.0,
        "runs": [dict(vars(r), traced=False) for r in untraced] + [dict(vars(r), traced=True) for r in traced],
    }
    result_file = workloads.WORK_DIR / "results" / f"{tag}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(result, indent=1))
    return result


def _median_rate(runs, count) -> float:
    return statistics.median(count(r) / r.normalised_seconds for r in runs) if runs else 0.0


def end_to_end_metrics(workload, untraced, setup_seconds, attempted, failed) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "generations_per_s": {"value": _median_rate(untraced, lambda r: workload.generations), "unit": "1/s"},
        "episodes_per_s": {"value": _median_rate(untraced, lambda r: r.episodes), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "completed_episode_ratio": {"value": 1.0 - failed / max(attempted, 1), "unit": "ratio"},
    }


def per_layer_metrics(untraced, traced, tracer, stats) -> dict:
    per_run = len(traced)
    record = traced[0]
    sizes = {k: (statistics.fmean(v) if v else 0.0) for k, v in tracer.sizes.items()}
    episodes = max(record.episodes, 1)

    def calls(name):
        return {"value": stats[name]["calls"] / per_run, "unit": "count"}

    def us(name, key="us_p50"):
        return {"value": stats[name][key], "unit": "us"}

    def ms(name, key="us_p50"):
        return {"value": stats[name][key] / 1e3, "unit": "ms"}

    return {
        "sim_core.build_world.calls": calls("sim_core.build_world"),
        "sim_core.build_world.us_p50": us("sim_core.build_world"),
        "sim_core.step.calls": calls("sim_core.step"),
        "sim_core.step.us_p50": us("sim_core.step"),
        "sim_core.step.self_us_p50": us("sim_core.step", "self_us_p50"),
        "sim_core.spring_forces.us_p50": us("sim_core.spring_forces"),
        "sim_core.contact_forces.us_p50": us("sim_core.contact_forces"),
        "sim_core.set_actuation_targets.us_p50": us("sim_core.set_actuation_targets"),
        "sim_core.masses_per_world": {"value": sizes["masses_per_world"], "unit": "count"},
        "sim_core.springs_per_world": {"value": sizes["springs_per_world"], "unit": "count"},
        "control.compute_actions.calls": calls("control.compute_actions"),
        "control.compute_actions.us_p50": us("control.compute_actions"),
        "control.observation_matrix.us_p50": us("control.observation_matrix"),
        "control.forward_batch.us_p50": us("control.forward_batch"),
        "control.active_voxels_per_call": {"value": sizes["active_voxels_per_call"], "unit": "count"},
        "tasks.run_episode.ms_p50": ms("tasks.run_episode"),
        "tasks.run_episode.self_ms_p50": ms("tasks.run_episode", "self_us_p50"),
        "tasks.steps_per_episode": {"value": record.steps / episodes, "unit": "count"},
        "tasks.diverged_ratio": {"value": record.diverged / episodes, "unit": "ratio"},
        "tasks.finished_ratio": {"value": record.finished / episodes, "unit": "ratio"},
        "tasks.fitness_many.ms_p50": ms("tasks.fitness_many"),
        "tasks.cache_hit_ratio": {
            "value": record.cache_hits / (record.cache_hits + record.episodes),
            "unit": "ratio",
        },
        "evolution.advance_generation.self_ms_p50": ms("evolution.advance_generation", "self_us_p50"),
        "evolution.make_offspring.us_p50": us("evolution.make_offspring"),
        "evolution.truncation_select.us_p50": us("evolution.truncation_select"),
        "evolution.save_checkpoint.ms_p50": ms("evolution.save_checkpoint"),
        "evolution.checkpoint_bytes": {"value": record.checkpoint_bytes, "unit": "bytes"},
        "morphology.mutate_morphology.us_p50": us("morphology.mutate_morphology"),
        "morphology.random_morphology.us_p50": us("morphology.random_morphology"),
        "cli.write_run_outputs.ms": {
            "value": statistics.median(r.write_outputs_s for r in untraced + traced) * 1e3,
            "unit": "ms",
        },
        # traced over untraced generations_per_s; both run the same generations
        "trace.overhead_ratio": {
            "value": _median_rate(traced, lambda r: 1) / _median_rate(untraced, lambda r: 1),
            "unit": "ratio",
        },
        "host.probe_ms": {
            "value": statistics.median(p for r in untraced + traced for p in r.probes) * 1e3,
            "unit": "ms",
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
