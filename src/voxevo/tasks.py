"""Locomotion episodes and the scalar fitness they produce.

An episode drops the robot on the course, queries its controller every
5th simulation step, and runs for at most T_MAX steps or until the
robot's center of mass crosses the finish line. Fitness is x-displacement
plus a completion bonus, minus a per-step time penalty, shifted by a
constant offset that exactly cancels the maximum possible penalty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import sim_core
from .control import ControllerGenome, compute_actions, controller_table, stack_controllers
from .morphology import InvalidMorphologyError, Morphology, require_valid
from .sim_core import KernelBuildError, build_world, build_worlds, set_actuation_targets
from .terrain import (  # re-exported task surface
    TerrainSpec,
    make_bridge_terrain,
    make_flat_terrain,
    terrain_by_name,
)

__all__ = [
    "T_MAX",
    "build_world",
    "compute_actions",  # one control step and its targets, outside an episode
    "set_actuation_targets",
    "EpisodeResult",
    "EpisodeEvaluator",
    "compute_fitness",
    "run_episode",
    "run_episodes",
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


def run_episode(morphology: Morphology, controller: ControllerGenome, terrain: TerrainSpec) -> EpisodeResult:
    """Run one deterministic locomotion episode: a batch of one."""
    return run_episodes([(morphology, controller)], terrain)[0]


def run_episodes(pairs, terrain: TerrainSpec) -> list[EpisodeResult]:
    """Run one episode per (morphology, controller) pair, in lock-step.

    All worlds are built at once, by ``build_worlds`` in the kernel, as one
    disjoint-union world that takes every step, actuation and controller
    call at once; pairs that share a body get identical rows. The pairs
    must share one body shape and one controller variant.
    The episode runs in the compiled kernel, one ``sim_core.advance`` call
    per stretch, with the batch's controller table (``controller_table``)
    queried at every control step inside it, whichever the variant. A
    stretch stops on a step where a world can have ended: a divergence, the
    last step, or a mass within a voxel of the finish line. Only there are
    the centres of mass measured and the end tests run. A world that
    crosses the finish line or diverges has its result recorded and is
    then parked: it stays in the union, inert, until the last world ends.
    Each world's result is bit for bit what it would be alone. The engine
    is noise-free, so identical inputs always produce identical results. A
    diverged simulation scores as unfinished with the full time penalty and
    the displacement of its last valid step, where ``step`` leaves it.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if len({(m.cells.shape, c.variant) for m, c in pairs}) > 1:
        raise ValueError("a batch holds one body shape and one controller variant")
    for morphology, _ in pairs:
        require_valid(morphology)
    state = build_worlds([morphology for morphology, _ in pairs], terrain)
    controllers = controller_table(stack_controllers([controller for _, controller in pairs]), state)
    start_x = state.robot_com_x()
    results: list[EpisodeResult | None] = [None] * len(pairs)
    running = np.ones(len(pairs), dtype=bool)
    # a robot's centre of mass lies within its masses' x range, up to a
    # rounding error far below this one-voxel slack
    finish_reach = terrain.finish_x - 1.0

    while True:
        blown = sim_core.advance(state, T_MAX, finish_reach, controllers)
        diverged = np.zeros(len(pairs), dtype=bool)
        diverged[blown] = True
        x = state.robot_com_x()
        finished = ~diverged & (x >= terrain.finish_x)
        ended = running & (diverged | finished | (state.sim_time == T_MAX))
        if not np.count_nonzero(ended):
            continue
        for w in np.flatnonzero(ended):
            steps_used = state.sim_time if finished[w] else T_MAX
            results[w] = _result(x[w] - start_x[w], finished[w], steps_used, diverged[w])
        running &= ~ended
        if not np.count_nonzero(running):
            break
        state.park(ended)
    return results


def _result(delta, finished, steps_used: int, diverged) -> EpisodeResult:
    delta, finished = float(delta), bool(finished)
    return EpisodeResult(delta, finished, steps_used, compute_fitness(delta, finished, steps_used), bool(diverged))


def _genome_key(morphology: Morphology, controller: ControllerGenome) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(morphology.cells.shape, dtype=np.int64).tobytes())
    digest.update(morphology.cells.tobytes())
    digest.update(controller.variant.encode())
    digest.update(controller.params.tobytes())
    return digest.digest()


class EpisodeEvaluator:
    """Scores (morphology, controller) pairs on one terrain.

    Deterministic episodes make caching exact: identical genomes share a
    fitness without re-simulation. The uncached genomes of one call run as
    batches, one per body shape and controller variant, and ``divergences``
    counts the episodes that diverged. A failure scores no displacement and
    the full time penalty, and is counted in ``failures`` instead of
    aborting the call: an invalid body fails alone, an unexpected exception
    fails its whole batch. A kernel that cannot be built is raised: it
    would fail every batch.
    """

    def __init__(self, terrain: TerrainSpec):
        self.terrain = terrain
        self._cache: dict[bytes, float] = {}
        self.episodes_run = 0
        self.cache_hits = 0
        self.failures = 0
        self.divergences = 0

    def fitness_many(self, pairs) -> list[float]:
        """Fitness of each pair, in order; each distinct genome runs once."""
        keys = []
        batches: dict[tuple, dict[bytes, tuple]] = {}
        for morphology, controller in pairs:
            key = _genome_key(morphology, controller)
            keys.append(key)
            batch = batches.setdefault((morphology.cells.shape, controller.variant), {})
            if key in self._cache or key in batch:
                self.cache_hits += 1
                continue
            self.episodes_run += 1
            try:
                require_valid(morphology)
            except InvalidMorphologyError:
                self._fail([key])
                continue
            batch[key] = (morphology, controller)
        for batch in batches.values():
            if not batch:
                continue
            try:
                results = run_episodes(batch.values(), self.terrain)
            except KernelBuildError:
                raise  # no episode can run: an error of the installation, not of the batch
            except Exception:
                self._fail(batch)
                continue
            for key, result in zip(batch, results):
                self._cache[key] = result.fitness
                self.divergences += result.diverged
        return [self._cache[key] for key in keys]

    def _fail(self, keys) -> None:
        self.failures += len(keys)
        for key in keys:
            self._cache[key] = compute_fitness(0.0, False, T_MAX)
