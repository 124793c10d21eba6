"""Locomotion episodes and the scalar fitness they produce.

An episode drops the robot on the course, queries its controller every
5th simulation step, and runs for at most T_MAX steps or until the
robot's center of mass crosses the finish line. Fitness is x-displacement
plus a completion bonus, minus a per-step time penalty, shifted by a
constant offset that exactly cancels the maximum possible penalty.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from . import sim_core
from .control import ControllerGenome, compute_actions
from .morphology import Morphology, require_valid
from .sim_core import DT, STEPS_PER_ACTION, SimulationDiverged, build_world, set_actuation_targets
from .terrain import (  # re-exported task surface
    TerrainSpec,
    make_bridge_terrain,
    make_flat_terrain,
    terrain_by_name,
)

__all__ = [
    "T_MAX",
    "EpisodeResult",
    "EpisodeEvaluator",
    "compute_fitness",
    "run_episode",
    "TerrainSpec",
    "make_bridge_terrain",
    "make_flat_terrain",
    "terrain_by_name",
]

T_MAX = 500
COMPLETION_BONUS = 1.0
STEP_PENALTY = 0.01
REWARD_OFFSET = 5.0  # = STEP_PENALTY * T_MAX, cancels the worst-case penalty


@dataclass(frozen=True)
class EpisodeResult:
    delta_px: float        # center-of-mass x displacement
    finished: bool         # reached the finish line
    steps_used: int        # simulation steps consumed
    fitness: float
    diverged: bool = False

    def to_json(self) -> dict:
        return {
            "delta_px": self.delta_px,
            "finished": self.finished,
            "steps_used": self.steps_used,
            "fitness": self.fitness,
            "diverged": self.diverged,
        }


def compute_fitness(delta_px: float, finished: bool, steps_used: int) -> float:
    """Affine episode score: displacement + done + 5 - 0.01*steps.

    The offset and the penalty are combined first so that the worst-case
    penalty cancels the offset exactly (a full 500-step episode with no
    displacement scores 0.0, not an ulp away from it).
    """
    if not 0 <= steps_used <= T_MAX:
        raise ValueError(f"steps_used must lie in [0, {T_MAX}], got {steps_used}")
    bonus = COMPLETION_BONUS if finished else 0.0
    return delta_px + bonus + (REWARD_OFFSET - STEP_PENALTY * steps_used)


def run_episode(
    morphology: Morphology,
    controller: ControllerGenome,
    terrain: TerrainSpec,
    *,
    telemetry_path=None,
) -> EpisodeResult:
    """Run one deterministic locomotion episode.

    The engine is noise-free, so identical inputs always produce identical
    results. A diverged simulation scores as unfinished with displacement
    taken at the last valid step and the full time penalty applied.
    """
    require_valid(morphology)
    state = build_world(morphology, terrain)
    start_x = state.robot_com_x()
    last_x = start_x
    finished = False
    diverged = False
    steps_used = T_MAX
    telemetry_rows = []

    for t in range(T_MAX):
        if t % STEPS_PER_ACTION == 0:
            k = t // STEPS_PER_ACTION
            actions = compute_actions(controller, state, k)
            set_actuation_targets(state, actions)
            if telemetry_path is not None:
                com = state.robot_center_of_mass()
                telemetry_rows.append([state.sim_time, com[0], com[1], *actions.tolist()])
        try:
            sim_core.step(state, DT)
        except SimulationDiverged:
            diverged = True
            break
        last_x = state.robot_com_x()
        if last_x >= terrain.finish_x:
            finished = True
            steps_used = state.sim_time
            break

    delta = last_x - start_x
    fitness = compute_fitness(delta, finished, steps_used)
    result = EpisodeResult(delta, finished, steps_used, fitness, diverged)
    if telemetry_path is not None:
        _write_telemetry(telemetry_path, state, telemetry_rows, result)
    return result


def _write_telemetry(path, state, rows, result: EpisodeResult) -> None:
    n_act = len(state.actuator_cells)
    header = ["sim_time", "com_x", "com_y"] + [f"action_{r}_{c}" for r, c in state.actuator_cells]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + [repr(v) for v in row[1:]])
        writer.writerow([])
        writer.writerow(["clamped_actions", state.clamped_actions] + [""] * max(0, n_act))
        writer.writerow(["fitness", repr(result.fitness)] + [""] * max(0, n_act))


def _genome_key(morphology: Morphology, controller: ControllerGenome) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(morphology.cells.shape, dtype=np.int64).tobytes())
    digest.update(morphology.cells.tobytes())
    digest.update(controller.variant.encode())
    digest.update(controller.params.tobytes())
    return digest.digest()


class EpisodeEvaluator:
    """Scores (morphology, controller) pairs on one terrain, one episode
    at a time.

    Deterministic episodes make caching exact: identical genomes share a
    fitness without re-simulation. An unexpected failure inside an episode
    scores like a divergence (no displacement, full time penalty) instead
    of aborting the batch.
    """

    def __init__(self, terrain: TerrainSpec):
        self.terrain = terrain
        self._cache: dict[bytes, float] = {}
        self.episodes_run = 0
        self.cache_hits = 0
        self.failures = 0

    def _safe_fitness(self, morphology: Morphology, controller: ControllerGenome) -> float:
        self.episodes_run += 1
        try:
            return run_episode(morphology, controller, self.terrain).fitness
        except Exception:
            self.failures += 1
            return compute_fitness(0.0, False, T_MAX)

    def fitness_many(self, pairs) -> list[float]:
        """Fitness of each pair, in order; each distinct genome runs once."""
        keys = []
        for morphology, controller in pairs:
            key = _genome_key(morphology, controller)
            if key in self._cache:
                self.cache_hits += 1
            else:
                self._cache[key] = self._safe_fitness(morphology, controller)
            keys.append(key)
        return [self._cache[key] for key in keys]
