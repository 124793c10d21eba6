"""Evolving 2D voxel-based soft robots.

A self-contained stack: a deterministic mass-spring physics engine for
voxel bodies, direct-encoded morphologies, shared modular neural
controllers and a zero-parameter open-loop controller, an age-fitness
Pareto evolutionary engine, locomotion tasks, and post-hoc analysis
tooling (controller retraining, cross-evaluation, rank-sum statistics).
"""

__version__ = "0.1.0"

from .morphology import Morphology, is_valid, morphology_distance, mutate_morphology, random_morphology
from .control import ControllerGenome, init_controller, mutate_controller
from .terrain import TerrainSpec, make_bridge_terrain, make_flat_terrain
from .tasks import EpisodeResult, compute_fitness, run_episodes
from .evolution import Individual, Population, RunConfig, RunResult, dominates, evolve

__all__ = [
    "Morphology",
    "ControllerGenome",
    "TerrainSpec",
    "EpisodeResult",
    "Individual",
    "Population",
    "RunConfig",
    "RunResult",
    "compute_fitness",
    "dominates",
    "evolve",
    "init_controller",
    "is_valid",
    "make_bridge_terrain",
    "make_flat_terrain",
    "morphology_distance",
    "mutate_controller",
    "mutate_morphology",
    "random_morphology",
    "run_episodes",
]
