"""Shared desk-scale experiment runner for the acceptance tests.

The headline desk experiment (walker, 5x5, population 16, 300 generations,
5 seeds per controller arm) takes tens of minutes, and three acceptance
tests consume its artifacts. Runs are cached on disk keyed by the config
fingerprint and the engine version, so repeated pytest invocations only pay
the cost once and a numerics change never reuses old results. An episode's
numerics are the same on every CPU (``tests/test_kernel.py`` checks it), so
the key names no CPU or BLAS kernel.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from voxevo.evolution import RunConfig, evolve
from voxevo.sim_core import ENGINE_VERSION
from voxevo.tasks import EpisodeEvaluator, terrain_by_name

CACHE_DIR = Path(__file__).resolve().parent.parent / ".acceptance_cache"

DESK_GENERATIONS = 300
DESK_SEEDS = 5
DESK_POPULATION = 16


def desk_config(controller: str, seed: int, generations: int = DESK_GENERATIONS) -> RunConfig:
    return RunConfig(
        environment="walker",
        height=5,
        width=5,
        controller=controller,
        generations=generations,
        population_size=DESK_POPULATION,
        seed=seed,
    )


def run_cached(config: RunConfig) -> dict:
    """Run (or load) one evolutionary run; returns a plain-JSON summary."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{config.fingerprint()[:16]}_e{ENGINE_VERSION}_s{config.seed}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    terrain = terrain_by_name(config.environment, (config.height, config.width))
    evaluator = EpisodeEvaluator(terrain)
    result = evolve(config, evaluator)
    summary = {
        "config": config.to_json(),
        "fingerprint": config.fingerprint(),
        "engine_version": ENGINE_VERSION,
        "seed": config.seed,
        "champion_fitness": result.champion.fitness,
        "champion_morphology": result.champion.morphology.to_json(),
        "champion_controller": result.champion.controller.to_json(),
        "best_curve": [s.best_fitness for s in result.stats],
        "episodes_run": evaluator.episodes_run,
        "cache_hits": evaluator.cache_hits,
    }
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(summary, fh)
    os.replace(tmp, path)
    return summary


def desk_arm(controller: str, seeds: int = DESK_SEEDS) -> list[dict]:
    return [run_cached(desk_config(controller, seed)) for seed in range(seeds)]


if __name__ == "__main__":
    import sys

    controllers = sys.argv[1:] or ["fixed", "modular"]
    for controller in controllers:
        for run in desk_arm(controller):
            print(
                f"{controller} seed {run['seed']}: champion {run['champion_fitness']:.4f}",
                flush=True,
            )
