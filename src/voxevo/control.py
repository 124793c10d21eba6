"""Controller paradigms for voxel robots.

Two variants:

* ``modular`` — one shared single-hidden-layer network (32 tanh units)
  evaluated once per active voxel on that voxel's local 3x3 observation
  window. The 73-entry observation is 9 cells x (volume, velocity x/y,
  5-way material indicator) plus a parity time signal. The output squashes
  onto the legal actuation interval via 0.6 + logistic(z).
* ``fixed`` — zero parameters, no observations: every active voxel
  alternates between maximal expansion and contraction each control step.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .sim_core import ACTION_HIGH, ACTION_LOW, WorldState, voxel_areas, voxel_velocities

WINDOW_CELLS = 9
CELL_FEATURES = 8  # volume + 2 velocity components + 5-way material indicator
OBS_DIM = WINDOW_CELLS * CELL_FEATURES + 1  # + time signal = 73
HIDDEN_UNITS = 32
PARAM_COUNT = OBS_DIM * HIDDEN_UNITS + HIDDEN_UNITS + HIDDEN_UNITS + 1  # 2401

INIT_SIGMA = 0.1
MUTATION_SIGMA = 0.1

VARIANTS = ("modular", "fixed")


@dataclass(frozen=True)
class ControllerGenome:
    """Immutable controller parameters.

    For the modular variant, ``params`` is the flat vector
    [W1 row-major (32x73), b1 (32), W2 row-major (1x32), b2 (1)].
    The fixed variant carries an empty vector.
    """

    variant: str
    params: np.ndarray

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown controller variant {self.variant!r}")
        arr = np.array(self.params, dtype=np.float64)
        expected = PARAM_COUNT if self.variant == "modular" else 0
        if arr.shape != (expected,):
            raise ValueError(
                f"{self.variant} controller requires {expected} parameters, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ControllerGenome):
            return NotImplemented
        return self.variant == other.variant and bool(np.array_equal(self.params, other.params))

    def __hash__(self) -> int:
        return hash((self.variant, self.params.tobytes()))

    def to_json(self) -> dict:
        return {"variant": self.variant, "params": self.params.tolist()}

    @staticmethod
    def from_json(data: dict) -> "ControllerGenome":
        return ControllerGenome(data["variant"], np.asarray(data["params"], dtype=np.float64))


@dataclass(frozen=True)
class ControllerStack:
    """The genomes of a batch of worlds: one variant, one parameter row per world."""

    variant: str
    params: np.ndarray  # (worlds, PARAM_COUNT); (worlds, 0) for fixed


def stack_controllers(genomes) -> ControllerStack:
    """The controllers of a batch of worlds, one row per world."""
    variants = {g.variant for g in genomes}
    if len(variants) != 1:
        raise ValueError(f"a batch needs one controller variant, got {sorted(variants)}")
    return ControllerStack(variants.pop(), np.stack([g.params for g in genomes]))


def init_controller(variant: str, rng: np.random.Generator) -> ControllerGenome:
    """Fresh genome: N(0, INIT_SIGMA) parameters for modular, empty for fixed."""
    if variant == "fixed":
        return ControllerGenome("fixed", np.zeros(0))
    return ControllerGenome("modular", rng.normal(0.0, INIT_SIGMA, size=PARAM_COUNT))


def mutate_controller(genome: ControllerGenome, rng: np.random.Generator) -> ControllerGenome:
    """Add N(0, MUTATION_SIGMA) noise to every parameter; fixed copies verbatim."""
    if genome.variant == "fixed":
        return genome
    return ControllerGenome("modular", genome.params + rng.normal(0.0, MUTATION_SIGMA, size=PARAM_COUNT))


def unpack_params(params: np.ndarray):
    """(W1, b1, W2, b2) views of flat parameter vectors along the last axis."""
    w1_end = OBS_DIM * HIDDEN_UNITS
    b1_end = w1_end + HIDDEN_UNITS
    w2_end = b1_end + HIDDEN_UNITS
    w1 = params[..., :w1_end].reshape(*params.shape[:-1], HIDDEN_UNITS, OBS_DIM)
    b1 = params[..., w1_end:b1_end]
    w2 = params[..., b1_end:w2_end]
    b2 = params[..., w2_end]
    return w1, b1, w2, b2


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def forward_batch(params: np.ndarray, obs_blocks: np.ndarray) -> np.ndarray:
    """Modular actions for (worlds, rows, 73) observation blocks, one
    (worlds, 2401) parameter row per block; pure and reentrant.

    Each block is its own GEMM, so a block's results depend only on its
    own rows, its own parameters and the block shape.
    """
    w1, b1, w2, b2 = unpack_params(params)
    hidden = obs_blocks @ np.swapaxes(w1, -1, -2)
    hidden += b1[:, None, :]
    np.tanh(hidden, out=hidden)
    z = (hidden @ w2[:, :, None])[:, :, 0] + b2[:, None]
    return ACTION_LOW + _sigmoid(z)


def blas_core() -> str:
    """Name of the OpenBLAS kernel that ``forward_batch``'s GEMM runs on in
    this process, such as "SkylakeX"; "unknown" when numpy's bundled
    OpenBLAS does not report it.

    Modular-controller results depend on this kernel, so run manifests and
    cached evidence record it.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def fixed_action(effective_step: int) -> float:
    """Open-loop alternation: expand on even control steps, contract on odd."""
    if effective_step < 0:
        raise ValueError("effective step index must be >= 0")
    return ACTION_HIGH if effective_step % 2 == 0 else ACTION_LOW


_WINDOW_DR = np.repeat([0, 1, 2], 3)  # 3x3 window offsets, row-major, on a grid padded by one cell
_WINDOW_DC = np.tile([0, 1, 2], 3)
_SLOT_BASE = np.arange(WINDOW_CELLS) * CELL_FEATURES  # first feature column of each window slot


class _Windows(NamedTuple):
    """Static observation tables of a state, one row per active voxel."""

    template: np.ndarray     # (n_active, 73) the material indicators, zeros elsewhere
    present: np.ndarray      # (n_active, 9) the window slot holds a voxel
    voxel: np.ndarray        # (n_active, 9) that voxel's row, 0 where absent
    block_rows: int          # rows per world in the controller blocks: h*w
    block_index: np.ndarray  # (n_active,) row in the stacked (worlds * block_rows) blocks


def _window_tables(state: WorldState) -> _Windows:
    """The state's observation tables, built on first use."""
    cached = state.obs_cache.get("windows")
    if cached is not None:
        return cached
    shape = np.max([m.cells.shape for m in state.morphologies], axis=0)
    grid_row = np.full((state.num_worlds, shape[0] + 2, shape[1] + 2), -1, dtype=np.int64)
    grid_code = np.zeros(grid_row.shape, dtype=np.int64)  # empty beyond every body
    for w, m in enumerate(state.morphologies):
        grid_code[w, 1 : m.h + 1, 1 : m.w + 1] = m.cells
    vox_world = np.repeat(np.arange(state.num_worlds), np.diff(state.starts["vox"]))
    cells = np.array(state.vox_cells, dtype=np.int64).reshape(-1, 2)
    grid_row[vox_world, cells[:, 0] + 1, cells[:, 1] + 1] = np.arange(cells.shape[0])

    act = np.array(state.actuator_cells, dtype=np.int64).reshape(-1, 2)
    n_active = act.shape[0]
    window = (state.act_world[:, None], act[:, :1] + _WINDOW_DR, act[:, 1:] + _WINDOW_DC)
    template = np.zeros((n_active, OBS_DIM))
    template[np.arange(n_active)[:, None], _SLOT_BASE + 3 + grid_code[window]] = 1.0
    voxel = grid_row[window]
    present = voxel >= 0
    block_rows = int(shape[0] * shape[1])
    slot = np.arange(n_active) - state.starts["act"][state.act_world]
    cached = _Windows(template, present, np.where(present, voxel, 0), block_rows, state.act_world * block_rows + slot)
    state.obs_cache["windows"] = cached
    return cached


def observation_matrix(state: WorldState, effective_step: int) -> np.ndarray:
    """All active voxels' 73-entry observations, rows aligned with
    state.actuator_cells.

    Each row scans the 3x3 window around its cell row-major; every slot
    contributes (volume, vx, vy, material indicator x5), with empty and
    out-of-bounds cells reading as zeros and the empty indicator. The
    final entry is the control-step parity.
    """
    windows = _window_tables(state)
    obs = windows.template.copy()
    if len(state.actuator_cells) == 0:
        return obs
    present, voxel = windows.present, windows.voxel
    areas = voxel_areas(state)
    vels = voxel_velocities(state)
    obs[:, _SLOT_BASE] = np.where(present, areas[voxel], 0.0)
    obs[:, _SLOT_BASE + 1] = np.where(present, vels[voxel, 0], 0.0)
    obs[:, _SLOT_BASE + 2] = np.where(present, vels[voxel, 1], 0.0)
    obs[:, -1] = effective_step % 2
    return obs


def compute_actions(controllers: ControllerStack, state: WorldState, effective_step: int) -> np.ndarray:
    """Per-active-voxel commands, aligned with state.actuator_cells.

    Modular observations go to the network in blocks of h*w rows per
    world, the most active voxels an h x w body can hold, so a world's
    block never depends on the other worlds in the state.
    """
    n_active = len(state.actuator_cells)
    if controllers.variant == "fixed":
        return np.full(n_active, fixed_action(effective_step))
    obs = observation_matrix(state, effective_step)
    windows = _window_tables(state)
    blocks = np.zeros((state.num_worlds, windows.block_rows, OBS_DIM))
    blocks.reshape(-1, OBS_DIM)[windows.block_index] = obs
    return forward_batch(controllers.params, blocks).ravel()[windows.block_index]
