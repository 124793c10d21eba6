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

from dataclasses import dataclass

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


def unpack_params(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    w1_end = OBS_DIM * HIDDEN_UNITS
    b1_end = w1_end + HIDDEN_UNITS
    w2_end = b1_end + HIDDEN_UNITS
    w1 = params[:w1_end].reshape(HIDDEN_UNITS, OBS_DIM)
    b1 = params[w1_end:b1_end]
    w2 = params[b1_end:w2_end]
    b2 = float(params[w2_end])
    return w1, b1, w2, b2


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def forward_batch(genome: ControllerGenome, obs_matrix: np.ndarray) -> np.ndarray:
    """Modular actions for the rows of a (n, 73) observation matrix; pure and reentrant."""
    if genome.variant != "modular":
        raise ValueError("forward_batch requires a modular genome")
    w1, b1, w2, b2 = unpack_params(genome.params)
    hidden = np.tanh(obs_matrix @ w1.T + b1)
    z = hidden @ w2 + b2
    return ACTION_LOW + _sigmoid(z)


def fixed_action(effective_step: int) -> float:
    """Open-loop alternation: expand on even control steps, contract on odd."""
    if effective_step < 0:
        raise ValueError("effective step index must be >= 0")
    return ACTION_HIGH if effective_step % 2 == 0 else ACTION_LOW


def _window_tables(state: WorldState):
    """Static per-world observation tables: the (n_active, 9) map into the
    voxel table, its presence mask, and the fixed material-indicator part
    of the observation matrix."""
    cached = state.obs_cache.get("window_tables")
    if cached is not None:
        return cached
    cell_row = {cell: i for i, cell in enumerate(state.vox_cells)}
    n_active = len(state.actuator_cells)
    win_map = np.full((n_active, WINDOW_CELLS), -1, dtype=np.int64)
    template = np.zeros((n_active, OBS_DIM))
    for a, (r, c) in enumerate(state.actuator_cells):
        slot = 0
        for rr in range(r - 1, r + 2):
            for cc in range(c - 1, c + 2):
                base = slot * CELL_FEATURES
                row = cell_row.get((rr, cc))
                if row is None:
                    template[a, base + 3] = 1.0  # empty-material indicator
                else:
                    win_map[a, slot] = row
                    code = int(state.morphology.cells[rr, cc])
                    template[a, base + 3 + code] = 1.0
                slot += 1
    present = win_map >= 0
    safe = np.where(present, win_map, 0)
    base = np.arange(WINDOW_CELLS) * CELL_FEATURES
    cached = (win_map, template, present, safe, base)
    state.obs_cache["window_tables"] = cached
    return cached


def observation_matrix(state: WorldState, effective_step: int) -> np.ndarray:
    """All active voxels' 73-entry observations, rows aligned with
    state.actuator_cells.

    Each row scans the 3x3 window around its cell row-major; every slot
    contributes (volume, vx, vy, material indicator x5), with empty and
    out-of-bounds cells reading as zeros and the empty indicator. The
    final entry is the control-step parity.
    """
    _, template, present, safe, base = _window_tables(state)
    obs = template.copy()
    if len(state.actuator_cells) == 0:
        return obs
    areas = voxel_areas(state)
    vels = voxel_velocities(state)
    obs[:, base] = np.where(present, areas[safe], 0.0)
    obs[:, base + 1] = np.where(present, vels[safe, 0], 0.0)
    obs[:, base + 2] = np.where(present, vels[safe, 1], 0.0)
    obs[:, -1] = effective_step % 2
    return obs


def compute_actions(genome: ControllerGenome, state: WorldState, effective_step: int) -> np.ndarray:
    """Per-active-voxel commands, aligned with state.actuator_cells."""
    n_active = len(state.actuator_cells)
    if genome.variant == "fixed":
        return np.full(n_active, fixed_action(effective_step))
    return forward_batch(genome, observation_matrix(state, effective_step))
