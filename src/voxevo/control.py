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

from . import sim_core
from .sim_core import ACTION_HIGH, ACTION_LOW, WorldState

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


def forward_batch(params: np.ndarray, obs_blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Modular actions of the selected rows of (worlds, block rows, 73)
    observation blocks, one (worlds, 2401) parameter row per block; pure
    and reentrant.

    ``rows`` are flat indices into the stacked (worlds * block rows) rows;
    the result holds one action per index, in their order. Each block is
    its own GEMM, so a block's results depend only on its own rows, its own
    parameters and the block shape. Rows do not mix, so the ``tanh`` and
    the output squashing run on the selected rows alone.
    """
    w1, b1, w2, b2 = unpack_params(params)
    hidden = obs_blocks @ np.swapaxes(w1, -1, -2)
    hidden += b1[:, None, :]
    flat = hidden.reshape(-1, HIDDEN_UNITS)
    active = flat.take(rows, axis=0)
    np.tanh(active, out=active)
    flat[rows] = active
    z = (hidden @ w2[:, :, None])[:, :, 0] + b2[:, None]
    return ACTION_LOW + _sigmoid(z.take(rows))


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
    """Open-loop alternation: expand on even control steps, contract on odd.

    The episode loop's kernel sets the same alternation itself
    (``sim_core.advance`` with ``fixed``), so a fixed batch never calls
    ``compute_actions``.
    """
    if effective_step < 0:
        raise ValueError("effective step index must be >= 0")
    return ACTION_HIGH if effective_step % 2 == 0 else ACTION_LOW


_WINDOW_DR = np.repeat([0, 1, 2], 3)  # 3x3 window offsets, row-major, on a grid padded by one cell
_WINDOW_DC = np.tile([0, 1, 2], 3)
_SLOT_BASE = np.arange(WINDOW_CELLS) * CELL_FEATURES  # first feature column of each window slot
_DYNAMIC = 3  # volume, vx, vy: the entries of a slot that change as the world moves
_DYNAMIC_COLUMNS = (_SLOT_BASE[:, None] + np.arange(_DYNAMIC)).ravel()  # (27,) in (slot, feature) order


class _WindowTable(ctypes.Structure):
    """A state's controller input as the kernel sees it: the ``Windows`` of
    ``_kernel.c``, field for field."""

    _fields_ = [(name, ctypes.c_int64) for name in ("voxels", "entries", "rows")] + [
        (name, ctypes.c_void_p) for name in ("corners", "features", "blocks", "gather", "dynamic", "parity")
    ]


class _Windows(NamedTuple):
    """A state's controller input, built once and written in place.

    ``blocks`` holds h*w rows per world, the most active voxels an h x w
    body can hold. Active voxel ``a`` owns row ``block_index[a]``; the
    other rows stay zero. The material indicators are written when the
    tables are built; each control step writes the dynamic entries and the
    parity, and nothing else.
    """

    blocks: np.ndarray       # (worlds, h*w, 73) the controller input
    features: np.ndarray     # (v + 1, 3) volume, vx, vy of each voxel; the last row stays zero
    gather: np.ndarray       # (n_active * 27,) flat entry of ``features`` behind each dynamic entry
    dynamic: np.ndarray      # (n_active * 27,) flat entry of ``blocks`` it is written to
    parity: np.ndarray       # (n_active,) flat entry of ``blocks`` holding each row's time signal
    block_index: np.ndarray  # (n_active,) row in the stacked (worlds * h*w) blocks
    corners: np.ndarray      # (v, 4) the state's vox_corners, row-major for the kernel
    table: _WindowTable      # the kernel's pointer table into these arrays
    address: int             # the table's address, what each fill takes


def _window_tables(state: WorldState) -> _Windows:
    """The state's controller input and its index tables, built on first use."""
    cached = state.obs_cache.get("windows")
    if cached is not None:
        return cached
    shape = np.max([m.cells.shape for m in state.morphologies], axis=0)
    cells = state.vox_cells
    absent = cells.shape[0]  # the zero row appended to the feature table
    grid_row = np.full((state.num_worlds, shape[0] + 2, shape[1] + 2), absent, dtype=np.int64)
    grid_code = np.zeros(grid_row.shape, dtype=np.int64)  # empty beyond every body
    for w, m in enumerate(state.morphologies):
        grid_code[w, 1 : m.h + 1, 1 : m.w + 1] = m.cells
    vox_world = np.repeat(np.arange(state.num_worlds), np.diff(state.starts["vox"]))
    grid_row[vox_world, cells[:, 0] + 1, cells[:, 1] + 1] = np.arange(absent)

    act = state.actuator_cells
    window = (state.act_world[:, None], act[:, :1] + _WINDOW_DR, act[:, 1:] + _WINDOW_DC)
    block_rows = int(shape[0] * shape[1])
    slot = np.arange(act.shape[0]) - state.starts["act"][state.act_world]
    block_index = state.act_world * block_rows + slot
    blocks = np.zeros((state.num_worlds, block_rows, OBS_DIM))
    blocks.reshape(-1, OBS_DIM)[block_index[:, None], _SLOT_BASE + 3 + grid_code[window]] = 1.0
    row_start = block_index[:, None] * OBS_DIM
    arrays = {
        "corners": np.ascontiguousarray(state.vox_corners),  # the union's is column-major
        "features": np.zeros((absent + 1, _DYNAMIC)),
        "blocks": blocks,
        "gather": (grid_row[window][:, :, None] * _DYNAMIC + np.arange(_DYNAMIC)).ravel(),
        "dynamic": (row_start + _DYNAMIC_COLUMNS).ravel(),
        "parity": block_index * OBS_DIM + OBS_DIM - 1,
    }
    table = _WindowTable(voxels=absent, entries=arrays["gather"].size, rows=block_index.size, **sim_core._addresses(arrays))
    cached = _Windows(block_index=block_index, table=table, address=ctypes.addressof(table), **arrays)
    state.obs_cache["windows"] = cached
    return cached


def _fill_blocks(state: WorldState, effective_step: int) -> _Windows:
    """Write the state's current observations into its controller input, in
    one kernel call.

    Each voxel's volume (its corners' shoelace area) and corner-mean
    velocity are computed once, then copied to every window slot that sees
    it; an empty or out-of-bounds slot reads the feature table's zero row.
    """
    windows = _window_tables(state)
    sim_core._kernel().vx_fill_blocks(state.kernel_address, windows.address, effective_step % 2)
    return windows


def observation_matrix(state: WorldState, effective_step: int) -> np.ndarray:
    """All active voxels' 73-entry observations, rows aligned with
    state.actuator_cells.

    Each row scans the 3x3 window around its cell row-major; every slot
    contributes (volume, vx, vy, material indicator x5), with empty and
    out-of-bounds cells reading as zeros and the empty indicator. The
    final entry is the control-step parity.
    """
    windows = _fill_blocks(state, effective_step)
    return windows.blocks.reshape(-1, OBS_DIM)[windows.block_index]


def compute_actions(controllers: ControllerStack, state: WorldState, effective_step: int) -> np.ndarray:
    """Per-active-voxel commands, aligned with state.actuator_cells.

    Modular observations go to the network in blocks of h*w rows per
    world, the most active voxels an h x w body can hold, so a world's
    block never depends on the other worlds in the state. The blocks are
    the state's persistent controller input, rewritten in place on every
    call.
    """
    if controllers.variant == "fixed":
        return np.full(len(state.actuator_cells), fixed_action(effective_step))
    windows = _fill_blocks(state, effective_step)
    return forward_batch(controllers.params, windows.blocks, windows.block_index)
