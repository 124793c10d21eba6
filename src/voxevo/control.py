"""Controller paradigms for voxel robots.

Two variants:

* ``modular`` — one shared single-hidden-layer network (32 tanh units)
  evaluated once per active voxel on that voxel's local 3x3 observation
  window. The 73-entry observation is 9 cells x (volume, velocity x/y,
  5-way material indicator) plus a parity time signal. The output squashes
  onto the legal actuation interval via 0.6 + logistic(z).
* ``fixed`` — zero parameters, no observations: every active voxel
  alternates between maximal expansion and contraction each control step.

Both run in the compiled kernel (``_kernel.c``), at every control step
inside ``sim_core.advance``, from a batch's controller table that Python
builds once (``controller_table``). The network's numerics are the
kernel's own, set out there and mirrored in numpy by
``tests/oracles.reference_network``: no BLAS, libm or numpy call, so the
same bits in every compiled clone and under any OpenBLAS kernel or numpy
SIMD dispatch.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import materials, sim_core
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


def fixed_action(effective_step: int) -> float:
    """Open-loop alternation: expand on even control steps, contract on odd.

    The kernel's control step sets the same alternation (``compute_actions``
    on a fixed stack).
    """
    if effective_step < 0:
        raise ValueError("effective step index must be >= 0")
    return ACTION_HIGH if effective_step % 2 == 0 else ACTION_LOW


_WINDOW_DR = np.repeat([0, 1, 2], 3)  # 3x3 window offsets, row-major, on a grid padded by one cell
_WINDOW_DC = np.tile([0, 1, 2], 3)
_SLOT_BASE = np.arange(WINDOW_CELLS) * CELL_FEATURES  # first feature column of each window slot
_DYNAMIC = 3  # volume, vx, vy: the entries of a slot that change as the world moves
_DYNAMIC_COLUMNS = (_SLOT_BASE[:, None] + np.arange(_DYNAMIC)).ravel()  # (27,) in (slot, feature) order
_MATERIAL_COLUMNS = (_SLOT_BASE[:, None] + np.arange(_DYNAMIC, CELL_FEATURES)).ravel()  # (45,) in column order
_INPUT_COLUMNS = np.append(_DYNAMIC_COLUMNS, OBS_DIM - 1)  # what a control step writes: (27,) then the parity
_INDICATOR = np.eye(materials.NUM_CODES)  # each material code's 5-way indicator


class _WindowTable(ctypes.Structure):
    """A state's observation windows as the kernel sees them: the
    ``Windows`` of ``_kernel.c``, field for field."""

    _fields_ = [("voxels", ctypes.c_int64)] + [(name, ctypes.c_void_p) for name in ("corners", "gather", "features")]


class _Windows(NamedTuple):
    """A state's observation windows, built once; the feature table is
    written in place by every control step.

    Active voxel ``a`` sees, in window slot ``s``, the (volume, vx, vy) at
    flat entry ``gather[a, 3*s:3*s+3]`` of the feature table and the
    material indicator ``material[a, 5*s:5*s+5]``; an empty or
    out-of-bounds slot reads the feature table's zero row and the empty
    indicator.
    """

    features: np.ndarray  # (v + 1, 3) volume, vx, vy of each voxel; the last row stays zero
    gather: np.ndarray    # (n_active, 27) flat entry of ``features`` behind each dynamic entry
    material: np.ndarray  # (n_active, 45) the material entries of each window, in column order
    corners: np.ndarray   # (v, 4) the state's vox_corners, row-major for the kernel
    table: _WindowTable   # the kernel's pointer table into these arrays
    address: int          # the table's address


def _window_tables(state: WorldState) -> _Windows:
    """The state's observation windows, built on first use."""
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
    arrays = {
        "corners": state.vox_corners,
        "gather": (grid_row[window][:, :, None] * _DYNAMIC + np.arange(_DYNAMIC)).reshape(len(act), -1),
        "features": np.zeros((absent + 1, _DYNAMIC)),
    }
    table = _WindowTable(voxels=absent, **sim_core._addresses(arrays))
    material = _INDICATOR[grid_code[window]].reshape(len(act), -1)
    cached = _Windows(material=material, table=table, address=ctypes.addressof(table), **arrays)
    state.obs_cache["windows"] = cached
    return cached


class _ControllerTable(ctypes.Structure):
    """A batch's controllers as the kernel sees them: the ``Brain`` of
    ``_kernel.c``, field for field."""

    _fields_ = (
        [("fixed", ctypes.c_int64), ("rows", ctypes.c_int64)]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "windows", "world", "w_material", "w_inputs", "b1", "w2", "b2", "pre", "inputs", "hidden", "actions"
            )
        ]
    )


class ControllerTable(NamedTuple):
    """A batch's controllers, built once for the kernel: the parameter rows,
    each active voxel's material pre-sums and the scratch a control step
    writes, the commands in ``arrays["actions"]``. ``sim_core.advance``
    takes it, and queries it on every control step."""

    arrays: dict              # every array the table points into, held so that none is freed
    table: _ControllerTable
    address: int              # the table's address, what each kernel call takes


def _controller_table(variant: str, world: np.ndarray, params=None, material=None, windows=None) -> ControllerTable:
    """The controller table of ``world.size`` rows, row ``r`` run by the
    parameters ``params[world[r]]``; for the modular network, each row's
    material pre-sum is added from ``material``, its (45,) material entries,
    in one kernel call."""
    rows = world.size
    arrays = {"world": np.ascontiguousarray(world, dtype=np.int64), "actions": np.zeros(rows)}
    if variant == "modular":
        w1, b1, w2, b2 = unpack_params(params)
        w1t = np.swapaxes(w1, -1, -2)  # (worlds, 73, 32): each column's unit weights in a row
        arrays.update(
            w_material=np.ascontiguousarray(w1t[:, _MATERIAL_COLUMNS]),
            w_inputs=np.ascontiguousarray(w1t[:, _INPUT_COLUMNS]),
            b1=np.ascontiguousarray(b1),
            w2=np.ascontiguousarray(w2),
            b2=np.ascontiguousarray(b2),
            pre=np.zeros((rows, HIDDEN_UNITS)),
            inputs=np.zeros((rows, _INPUT_COLUMNS.size)),
            hidden=np.zeros((rows, HIDDEN_UNITS)),
        )
    table = _ControllerTable(
        fixed=variant == "fixed",
        rows=rows,
        windows=None if windows is None else windows.address,
        **sim_core._addresses(arrays),
    )
    controllers = ControllerTable(arrays, table, ctypes.addressof(table))
    if variant == "modular":
        material = np.ascontiguousarray(material, dtype=np.float64)
        sim_core._kernel().vx_presum(controllers.address, material.ctypes.data)
    return controllers


def controller_table(controllers: ControllerStack, state: WorldState) -> ControllerTable:
    """The kernel's table for a batch's controllers on its state, built on
    first use and kept until the state is given another stack."""
    cached = state.obs_cache.get("controllers")
    if cached is not None and cached[0] is controllers:
        return cached[1]
    if controllers.variant == "fixed":
        table = _controller_table("fixed", state.act_world)
    else:
        windows = _window_tables(state)
        table = _controller_table("modular", state.act_world, controllers.params, windows.material, windows)
    state.obs_cache["controllers"] = (controllers, table)
    return table


def forward_batch(params: np.ndarray, obs_blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Modular actions of the selected rows of (worlds, block rows, 73)
    observation blocks, one (worlds, 2401) parameter row per block; pure
    and reentrant.

    ``rows`` are flat indices into the stacked (worlds * block rows) rows;
    the result holds one action per index, in their order. This is the
    kernel's network, the one an episode runs, on whatever the rows hold:
    their material entries need not be indicators.
    """
    rows = np.asarray(rows, dtype=np.int64)
    obs = obs_blocks.reshape(-1, OBS_DIM)[rows]
    table = _controller_table("modular", rows // obs_blocks.shape[1], params, obs[:, _MATERIAL_COLUMNS])
    table.arrays["inputs"][:] = obs[:, _INPUT_COLUMNS]
    sim_core._kernel().vx_mlp(table.address)
    return ACTION_LOW + table.arrays["actions"]


def observation_matrix(state: WorldState, effective_step: int) -> np.ndarray:
    """All active voxels' 73-entry observations, rows aligned with
    state.actuator_cells.

    Each row scans the 3x3 window around its cell row-major; every slot
    contributes (volume, vx, vy, material indicator x5), with empty and
    out-of-bounds cells reading as zeros and the empty indicator. The
    final entry is the control-step parity. The kernel computes each
    voxel's volume (its corners' shoelace area) and corner-mean velocity
    once, as a control step does; they are copied to every slot that sees
    them.
    """
    windows = _window_tables(state)
    sim_core._kernel().vx_fill_features(state.kernel_address, windows.address)
    obs = np.empty((len(windows.material), OBS_DIM))
    obs[:, _DYNAMIC_COLUMNS] = windows.features.take(windows.gather)
    obs[:, _MATERIAL_COLUMNS] = windows.material
    obs[:, -1] = effective_step % 2
    return obs


def compute_actions(controllers: ControllerStack, state: WorldState, effective_step: int) -> np.ndarray:
    """Per-active-voxel commands, aligned with state.actuator_cells: the
    kernel's control step, the one ``sim_core.advance`` takes at every
    control step of an episode."""
    table = controller_table(controllers, state)
    sim_core._kernel().vx_act(state.kernel_address, table.address, effective_step % 2)
    return table.arrays["actions"].copy()
