"""Controller paradigms for voxel robots.

Two variants:

* ``modular`` — one shared single-hidden-layer network (32 tanh units)
  evaluated once per active voxel on that voxel's local 3x3 observation
  window. The 73-entry observation is 9 cells x (volume, velocity x/y,
  5-way material indicator) plus a parity time signal. The output squashes
  onto the legal actuation interval via 0.6 + logistic(z).
* ``fixed`` — zero parameters, no observations: every active voxel
  alternates between maximal expansion and contraction each control step.

Both run only in the compiled kernel (``_kernel.c``), at every control
step inside ``sim_core.advance``, from the controller table that the
state keeps (``controller_table``), built from one genome per world: the
parameter rows and, for the network, each active voxel's material
pre-sums. The observation windows are the state's own tables, which the
kernel derives as it builds the union (``WorldState.act_window`` and
``act_codes``), and a control step fills the state's ``features``. The
network's numerics are the kernel's own, set out there and mirrored in
numpy by ``tests/oracles.reference_network``: plain loops that the compiler
vectorises as it does the step's, across units or rows and never across
a sum, and no BLAS, libm or numpy call, so the same bits in every
compiled clone and under any OpenBLAS kernel or numpy SIMD dispatch.
"""

from __future__ import annotations

import base64
import ctypes
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import materials, sim_core
from .sim_core import ACTION_LOW, WorldState

WINDOW_CELLS = 9
CELL_FEATURES = 8  # volume + 2 velocity components + 5-way material indicator
OBS_DIM = WINDOW_CELLS * CELL_FEATURES + 1  # + time signal = 73
HIDDEN_UNITS = 32
PARAM_COUNT = OBS_DIM * HIDDEN_UNITS + HIDDEN_UNITS + HIDDEN_UNITS + 1  # 2401

INIT_SIGMA = 0.1
MUTATION_SIGMA = 0.1

VARIANTS = ("modular", "fixed")
# a genome record's parameters: base64 of their little-endian float64 bytes
PARAMS_KEY = "params_f64le_base64"


@dataclass(frozen=True)
class ControllerGenome:
    """Immutable controller parameters.

    For the modular variant, ``params`` is the flat vector
    [W1 row-major (32x73), b1 (32), W2 row-major (1x32), b2 (1)].
    The fixed variant carries an empty vector.

    A genome has one JSON record, which checkpoints, ``champion.json`` and
    every other writer use: the variant and, under ``PARAMS_KEY``, the
    parameters as base64 of their little-endian float64 bytes, so they
    come back bit for bit.
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
        params = base64.b64encode(self.params.astype("<f8", copy=False).tobytes()).decode("ascii")
        return {"variant": self.variant, PARAMS_KEY: params}

    @staticmethod
    def from_json(data: dict) -> "ControllerGenome":
        """The genome of a record, bit for bit. Records written before
        parameters were stored as bytes hold a float list under ``"params"``
        instead: older checkpoints and ``champion.json`` files, and the
        acceptance tests' cached desk runs. Bad base64 or a wrong parameter
        count is a ValueError."""
        if PARAMS_KEY in data:
            params = np.frombuffer(base64.b64decode(data[PARAMS_KEY], validate=True), dtype="<f8")
        else:
            params = np.asarray(data["params"], dtype=np.float64)
        return ControllerGenome(data["variant"], params)


def batch_variant(genomes) -> str:
    """The one controller variant of a batch's genomes; mixed or no
    variants are a ValueError."""
    variants = {g.variant for g in genomes}
    if len(variants) != 1:
        raise ValueError(f"a batch needs one controller variant, got {sorted(variants)}")
    return variants.pop()


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


_SLOT_BASE = np.arange(WINDOW_CELLS) * CELL_FEATURES  # first feature column of each window slot
_DYNAMIC = 3  # volume, vx, vy: the entries of a slot that change as the world moves
_DYNAMIC_COLUMNS = (_SLOT_BASE[:, None] + np.arange(_DYNAMIC)).ravel()  # (27,) in (slot, feature) order
_MATERIAL_COLUMNS = (_SLOT_BASE[:, None] + np.arange(_DYNAMIC, CELL_FEATURES)).ravel()  # (45,) in column order
_INPUT_COLUMNS = np.append(_DYNAMIC_COLUMNS, OBS_DIM - 1)  # what a control step writes: (27,) then the parity
_INDICATOR = np.eye(materials.NUM_CODES)  # each material code's 5-way indicator


class ControllerTable(NamedTuple):
    """A batch's controllers, built once for the kernel: the parameter rows,
    each active voxel's material pre-sums and the network's scratch, the
    commands in ``arrays["actions"]``, and the kernel's ``Brain`` pointing
    into them, as ``sim_core._struct`` reads it from ``_kernel.c``. A state
    keeps its own (``WorldState.controller``), which ``sim_core.advance``
    queries on every control step; a control step reads the observations
    through the state's windows."""

    arrays: dict              # every array the table points into, held so that none is freed
    table: ctypes.Structure   # the kernel's Brain
    address: int              # the table's address, what each kernel call takes


def _controller_table(variant: str, world: np.ndarray, params=None, material=None) -> ControllerTable:
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
    table = sim_core._struct("Brain")(fixed=variant == "fixed", rows=rows)
    sim_core._point(table, arrays)
    controllers = ControllerTable(arrays, table, ctypes.addressof(table))
    if variant == "modular":
        material = np.ascontiguousarray(material, dtype=np.float64)
        sim_core._kernel().vx_presum(controllers.address, material.ctypes.data)
    return controllers


def _state_table(genomes, state: WorldState) -> ControllerTable:
    """The kernel's table for one genome per world of ``state``, in world
    order, each active voxel's material entries the indicators of its
    window's codes (``state.act_codes``). Mixed variants, or a count other
    than the state's worlds, is a ValueError, raised before any kernel
    call."""
    variant = batch_variant(genomes)
    if len(genomes) != state.num_worlds:
        raise ValueError(f"one genome per world: got {len(genomes)} for {state.num_worlds}")
    if variant == "fixed":
        return _controller_table("fixed", state.act_world)
    params = np.stack([g.params for g in genomes])
    return _controller_table("modular", state.act_world, params, _INDICATOR[state.act_codes])


def controller_table(genomes, state: WorldState) -> ControllerTable:
    """Build the kernel's table for one genome per world of ``state``
    (``_state_table``) and keep it as ``state.controller``, which
    ``sim_core.advance`` steps with."""
    state.controller = _state_table(genomes, state)
    return state.controller


def forward_batch(params: np.ndarray, obs_blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Modular actions of the selected rows of (worlds, block rows, 73)
    observation blocks, one (worlds, 2401) parameter row per block; pure
    and reentrant.

    ``rows`` are flat indices into the stacked (worlds * block rows) rows;
    the result holds one action per index, in their order. This is the
    kernel's network, the one an episode runs, on whatever the rows hold:
    their material entries need not be indicators. A parameter stack
    whose row count is not the block count is a ValueError.
    """
    if params.shape[0] != obs_blocks.shape[0]:
        raise ValueError(f"one parameter row per observation block: got {params.shape[0]} for {obs_blocks.shape[0]}")
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
    once, into ``state.features``, as a control step does; they are copied
    to every slot that sees them (``state.act_window``), and each slot's
    indicator is that of its code (``state.act_codes``).
    """
    sim_core._kernel().vx_fill_features(state.kernel_address)
    rows = len(state.act_window)
    obs = np.empty((rows, OBS_DIM))
    obs[:, _DYNAMIC_COLUMNS] = state.features[state.act_window].reshape(rows, -1)
    obs[:, _MATERIAL_COLUMNS] = _INDICATOR[state.act_codes].reshape(rows, -1)
    obs[:, -1] = effective_step % 2
    return obs


def compute_actions(genomes, state: WorldState, effective_step: int) -> np.ndarray:
    """Per-active-voxel commands, aligned with state.actuator_cells, of one
    genome per world: the kernel's control step, the one
    ``sim_core.advance`` takes at every control step of an episode, on a
    table built for this call; the state keeps its own table."""
    table = _state_table(genomes, state)
    sim_core._kernel().vx_act(state.kernel_address, table.address, effective_step % 2)
    return table.arrays["actions"].copy()
