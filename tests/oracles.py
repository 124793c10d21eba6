"""Scalar reference implementations that the batched library paths are
tested against.

Each oracle computes one voxel, one window or one network evaluation at a
time, in the most direct form, so that a test can compare it with the
vectorised code the engine runs: ``observe_voxel`` and
``gather_observation`` against ``control.observation_matrix``,
``modular_forward`` against ``control.forward_batch``;
``mechanical_energy`` serves the energy-balance physics checks and
``robot_center_of_mass`` the free-fall ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxevo import materials
from voxevo.control import CELL_FEATURES, OBS_DIM, ControllerGenome, unpack_params
from voxevo.sim_core import ACTION_LOW, GRAVITY, WorldState


def one_hot(code: int) -> np.ndarray:
    """5-entry indicator vector for a material code (empty included)."""
    if code not in range(materials.NUM_CODES):
        raise ValueError(f"unknown material code {code!r}")
    v = np.zeros(materials.NUM_CODES)
    v[code] = 1.0
    return v


def voxel_index(state: WorldState) -> dict[tuple[int, int], tuple[int, ...]]:
    """Cell -> its corner mass ids in (bl, br, tr, tl) order."""
    return {cell: tuple(corners.tolist()) for cell, corners in zip(state.vox_cells, state.vox_corners)}


@dataclass
class VoxelObservation:
    """Proprioception of one voxel cell: volume, speed, material."""

    normalized_volume: float
    center_velocity: np.ndarray
    material_one_hot: np.ndarray

    def as_vector(self) -> np.ndarray:
        out = np.empty(CELL_FEATURES)
        out[0] = self.normalized_volume
        out[1:3] = self.center_velocity
        out[3:8] = self.material_one_hot
        return out


def observe_voxel(state: WorldState, cell: tuple[int, int]) -> VoxelObservation:
    """Proprioception of one cell; empty/out-of-bounds cells read as zeros.

    normalized_volume is the corner quadrilateral's shoelace area over the
    unit rest area; center_velocity is the mean of the corner velocities.
    """
    corners = voxel_index(state).get(tuple(cell))
    if corners is None:
        return VoxelObservation(0.0, np.zeros(2), one_hot(materials.EMPTY))
    idx = list(corners)
    quad = state.pos[idx]
    x = quad[:, 0]
    y = quad[:, 1]
    area = 0.5 * abs(
        x[0] * y[1] - x[1] * y[0]
        + x[1] * y[2] - x[2] * y[1]
        + x[2] * y[3] - x[3] * y[2]
        + x[3] * y[0] - x[0] * y[3]
    )
    velocity = state.vel[idx].mean(axis=0)
    code = int(state.morphologies[0].cells[cell[0], cell[1]])
    return VoxelObservation(area, velocity, one_hot(code))


def gather_observation(state: WorldState, cell: tuple[int, int], effective_step: int) -> np.ndarray:
    """73-entry local observation for the active voxel at ``cell``.

    The 3x3 window is scanned row-major around the cell; each slot
    contributes (volume, vx, vy, material indicator x5); the final entry
    is the control-step parity.
    """
    r, c = cell
    code = None
    morphology = state.morphologies[0]
    if 0 <= r < morphology.h and 0 <= c < morphology.w:
        code = int(morphology.cells[r, c])
    if code not in materials.ACTIVE_CODES:
        raise ValueError(f"cell {cell} does not hold an active voxel")
    out = np.empty(OBS_DIM)
    k = 0
    for rr in range(r - 1, r + 2):
        for cc in range(c - 1, c + 2):
            out[k : k + CELL_FEATURES] = observe_voxel(state, (rr, cc)).as_vector()
            k += CELL_FEATURES
    out[-1] = effective_step % 2
    return out


def modular_forward(genome: ControllerGenome, obs: np.ndarray) -> float:
    """One action from one observation; pure and reentrant."""
    if genome.variant != "modular":
        raise ValueError("modular_forward requires a modular genome")
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (OBS_DIM,):
        raise ValueError(f"observation must have shape ({OBS_DIM},), got {obs.shape}")
    w1, b1, w2, b2 = unpack_params(genome.params)
    hidden = np.tanh(w1 @ obs + b1)
    z = float(w2 @ hidden + b2)
    return ACTION_LOW + float(1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))))


def mechanical_energy(state: WorldState, gravity: float = GRAVITY) -> float:
    """Kinetic + spring elastic + gravitational PE (surface at y=0 as datum)."""
    ke = 0.5 * float((state.mass * (state.vel * state.vel).sum(axis=1)).sum())
    d = state.pos[state.spring_j] - state.pos[state.spring_i]
    dist = np.sqrt((d * d).sum(axis=1))
    pe_spring = 0.5 * float((state.spring_k * (dist - state.spring_current_rest) ** 2).sum())
    pe_grav = gravity * float((state.mass * state.pos[:, 1]).sum())
    return ke + pe_spring + pe_grav


def robot_center_of_mass(state: WorldState) -> np.ndarray:
    """(worlds, 2) robot centres of mass, one world at a time."""
    com = np.empty((state.num_worlds, 2))
    for w in range(state.num_worlds):
        robot = state.is_robot & (state.mass_world == w)
        com[w] = state.mass[robot] @ state.pos[robot] / state.mass[robot].sum()
    return com
