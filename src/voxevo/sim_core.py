"""Deterministic 2D mass-spring engine for voxel soft bodies.

Every voxel is a unit square of four corner point masses joined by four
edge springs and two diagonal shear springs; neighbouring voxels share
corners and edge springs. Actuator voxels drive the rest length of their
two edge springs (horizontal edges for horizontal actuators, vertical
edges for vertical ones) toward a commanded multiple of the build-time
rest length, rate-limited per simulation step. Integration is
semi-implicit Euler; ground contact is a penalty normal force plus
Coulomb-capped friction.

World layout: x grows to the right, y up, the walkable surface at y=0.
A WorldState holds one world or a disjoint union of several that step
together; no table joins two worlds, so one world never affects another.

The episode's inner loop runs in C: ``_kernel.c`` holds the actuation
advance, the spring forces, ground and strip contact, the force table's
scatter, gravity, integration and the divergence test, the loop of steps
around them, the actuation targets (``set_actuation_targets``) and both
controllers: the fixed alternation, and the modular network with its
observation fill (``control.controller_table``). ``advance`` is one call
into it that steps until a world may have ended, querying a batch's
controller table at every control step; ``step`` is its one-step case,
which queries none. Python builds the worlds, each state's pointer table
(``_kernel_table``) and each batch's controller table, parks worlds and
keeps each episode's books (``tasks.run_episodes``). The kernel does
numpy's operations in numpy's order, so the physics gives the bits the
numpy code gave (``tests/oracles.py`` keeps that code as the reference it
is tested against). The modular network has numerics of its own instead: a
fixed summation order, and ``tanh`` and the logistic built on the kernel's
own ``exp``, with no libm, numpy or BLAS call, so that each of its compiled
clones (AVX-512 and the baseline, picked by the CPU) gives the same
bits (``_kernel.c`` sets them out). The system C compiler (``_COMPILER``)
builds the kernel on first use with ``_CFLAGS``: ``-O2 -ffp-contract=off``
and never ``-ffast-math`` or ``-march=native``, either of which could move
bits. The library is cached in ``_KERNEL_DIR``, beside this file, under a
name that carries a hash of the source and the flags, so a cache hit only
hashes the source and loads the file. There is no fallback engine: a second
step path would be a second set of numerics to keep equal, so a kernel that
cannot be built is an error that names the compiler, the cache directory
and the compiler's complaint.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import materials
from .morphology import Morphology, simulability_report, InvalidMorphologyError
from .terrain import TerrainSpec

# Version of the episode numerics. Bump it with any change that can move a
# simulated trajectory or fitness by even one ulp: cached evidence, run
# manifests and checkpoints carry it, so results are never served or mixed
# across engines. 5: the modular network runs in the kernel, with its own
# tanh and exp and a fixed summation order, the same bits in every clone.
ENGINE_VERSION = 5

# Integration and units
DT = 0.005                 # seconds per simulation step
STEPS_PER_ACTION = 5       # controller queried every 5th step
GRAVITY = 9.81
CORNER_MASS_PER_VOXEL = 0.25

# Actuation
ACTION_LOW = 0.6
ACTION_HIGH = 1.6
# Rest lengths move toward their commanded target by at most this fraction
# of the build-time rest length per sim step. 0.2 lets a full-range command
# complete within one control period (5 steps), so maximal alternation
# actually reaches the extremes while still ramping gradually.
ACTUATION_RATE = 0.2

# Damping and contact
DAMPING_RATIO = 0.05       # per-spring damping as a fraction of critical
CONTACT_STIFFNESS = 10_000.0
CONTACT_DAMPING = 50.0
FRICTION_MU = 0.5

DIVERGENCE_LIMIT = 1e6

# Bridge-strip statics: the Newton solve stops once every free strip mass
# accelerates by less than STRIP_TOLERANCE, and raises after
# STRIP_NEWTON_ITERATIONS; STRIP_FD_STEP is its finite-difference step.
STRIP_TOLERANCE = 1e-9
STRIP_NEWTON_ITERATIONS = 50
STRIP_FD_STEP = 1e-6


# What ``step`` returns when no world diverged: shared, so read-only
_NO_WORLDS = np.empty(0, dtype=np.intp)
_NO_WORLDS.flags.writeable = False

# The compiled kernel: its source, the command that builds it, and the
# directory that caches the built library
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_DIR = Path(__file__).with_name("_kernel_build")
_COMPILER = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class KernelBuildError(RuntimeError):
    """The compiled kernel could not be built."""


class _Table(ctypes.Structure):
    """A WorldState as the kernel sees it: the ``Table`` of ``_kernel.c``,
    field for field. ``_kernel_table`` fills it."""

    _fields_ = (
        [
            (name, ctypes.c_int64)
            for name in (
                "masses", "springs", "robots", "worlds", "chain", "edges", "diagonals", "terrain",
                "actuators", "steps_per_action",
            )
        ]
        + [
            (name, ctypes.c_double)
            for name in ("dt", "stiffness", "damping", "mu", "limit", "span_start", "span_end", "action_low", "action_high")
        ]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "pos", "vel", "rest", "target", "clamped_actions", "mass", "inv_mass",
                "spring_i", "spring_j", "spring_k", "spring_c", "spring_rest",
                "edge_ids", "edge_limit", "edge_floor", "edge_slot", "edge_count", "act_world",
                "diagonal_sides", "diagonal_ids", "robot_ids", "robot_world", "bridge_top", "mass_starts",
                "bins", "terms", "net", "new_pos", "diverged", "blown", "contact_ids", "contact_w",
                "clamped", "sums",
            )
        ]
    )


@dataclass
class WorldState:
    """Mutable simulation state of one or more worlds, each a robot plus its
    bridge strip, if any.

    ``build_worlds`` makes one disjoint union of several worlds that steps
    them all at once; ``build_world`` makes a union of one. Every
    per-element table is concatenated world by world: world ``w`` owns the
    rows ``starts[kind][w]:starts[kind][w + 1]`` of each kind ("mass",
    "spring", "vox", "act", "top"), its robot's masses first. Index tables
    hold union ids, so no spring, contact or sum ever joins two worlds. A
    world that ``park`` has made inert stays in the union and keeps
    stepping with it, but it no longer moves, exerts a force or touches the
    ground.

    ``inv_mass`` is (n, 2), each mass's inverse mass in both columns, so a
    step scales its (n, 2) forces by it without a broadcast. The force
    table (``force_bins``, ``force_terms``) is built once per state and
    written in place by every step; ``net_forces`` gives its layout. The
    kernel's pointer table into the state's arrays is built once too, so
    those arrays are written in place and never rebound.
    """

    pos: np.ndarray            # (n, 2)
    vel: np.ndarray            # (n, 2)
    mass: np.ndarray           # (n,)
    inv_mass: np.ndarray       # (n, 2) each mass's 1/mass in both columns; zero for pinned masses
    pinned: np.ndarray         # (n,) bool
    is_robot: np.ndarray       # (n,) bool, false for bridge-strip masses

    spring_i: np.ndarray       # (s,) first endpoint index
    spring_j: np.ndarray       # (s,)
    spring_rest: np.ndarray    # (s,) build-time rest lengths
    spring_current_rest: np.ndarray
    spring_target_rest: np.ndarray
    spring_k: np.ndarray
    spring_c: np.ndarray

    # per-voxel tables over each robot's non-empty cells, row-major
    vox_cells: np.ndarray      # (v, 2) (row, column) in its robot's grid
    vox_corners: np.ndarray    # (v, 4) mass ids in (bl, br, tr, tl) order
    vox_h_edges: np.ndarray    # (v, 2) spring ids (bottom, top)
    vox_v_edges: np.ndarray    # (v, 2) spring ids (left, right)
    vox_shear: np.ndarray      # (v, 2) spring ids

    # active-voxel tables, row-major over each robot's actuator cells
    actuator_cells: np.ndarray    # (a, 2) (row, column) in its robot's grid
    actuator_springs: np.ndarray  # (a, 2) actuated edge spring ids

    bridge_top: np.ndarray     # top-chain mass ids ordered by x, per world; empty when flat

    # per-world rows
    morphologies: list[Morphology]  # empty for the bare bridge strip
    clamped_actions: np.ndarray  # out-of-range commands clamped so far

    starts: dict[str, np.ndarray] = field(repr=False)
    terrain: TerrainSpec | None = None
    sim_time: int = 0
    obs_cache: dict = field(default_factory=dict, repr=False)

    # step-loop tables, derived from the fields above
    mass_world: np.ndarray = field(init=False, repr=False)      # world of each mass
    spring_world: np.ndarray = field(init=False, repr=False)    # world of each spring
    act_world: np.ndarray = field(init=False, repr=False)       # world of each active voxel
    robot_ids: np.ndarray = field(init=False, repr=False)       # robot masses, ascending
    robot_rows: slice | np.ndarray = field(init=False, repr=False)  # the same rows; a slice when every mass is a robot's
    robot_world: np.ndarray = field(init=False, repr=False)     # their worlds
    com_weights: np.ndarray = field(init=False, repr=False)     # their mass fractions within their robot
    # the force table: one term per row, each summed into its flat (mass, axis) bin
    force_bins: np.ndarray = field(init=False, repr=False)      # (4s + 8r,) springs' i x, i y, j x, j y; ground x, y; strip block
    force_terms: np.ndarray = field(init=False, repr=False)     # (4s + 8r,) the terms, written in place every step
    actuated_edges: np.ndarray = field(init=False, repr=False)  # unique actuated edge spring ids
    actuated_count: np.ndarray = field(init=False, repr=False)  # their actuators, 1 or 2
    actuated_limit: np.ndarray = field(init=False, repr=False)  # their per-step rest-length change limit
    actuated_floor: np.ndarray = field(init=False, repr=False)  # minus that limit
    actuated_slot: np.ndarray = field(init=False, repr=False)   # (2a,) each actuator_springs entry's row in actuated_edges
    diagonal_sides: np.ndarray = field(init=False, repr=False)  # (2, 2, v') (bottom, left), (top, right) edge ids of the voxels holding one
    diagonals: np.ndarray = field(init=False, repr=False)       # (2, v') those voxels' shear spring ids
    # the kernel's pointer table, and every array it points into, its own
    # scratch rows included: held here, so none is freed while it is in use
    kernel_arrays: dict = field(init=False, repr=False)
    kernel_table: _Table = field(init=False, repr=False)
    kernel_address: int = field(init=False, repr=False)         # the table's address, what each kernel call takes

    def __post_init__(self):
        worlds = np.arange(self.num_worlds)
        self.mass_world = np.repeat(worlds, np.diff(self.starts["mass"]))
        self.spring_world = np.repeat(worlds, np.diff(self.starts["spring"]))
        self.act_world = np.repeat(worlds, np.diff(self.starts["act"]))
        self.robot_ids = np.flatnonzero(self.is_robot)
        # a slice reads views and adds in place; every flat world or union has one
        self.robot_rows = slice(0, self.num_masses) if self.robot_ids.size == self.num_masses else self.robot_ids
        self.robot_world = self.mass_world[self.robot_ids]
        robot_mass = self.mass[self.robot_ids]
        self.com_weights = robot_mass / np.bincount(self.robot_world, robot_mass)[self.robot_world]
        # the springs' block, the ground block, and room for the strip
        # block: up to six terms per robot mass, with bins written per step
        i2, j2, r2 = 2 * self.spring_i, 2 * self.spring_j, 2 * self.robot_ids
        self.force_bins = np.concatenate([i2, i2 + 1, j2, j2 + 1, r2, r2 + 1, np.zeros(6 * r2.size, dtype=r2.dtype)])
        self.force_terms = np.zeros(self.force_bins.size)
        self.actuated_edges, self.actuated_slot, self.actuated_count = np.unique(
            self.actuator_springs.ravel(), return_inverse=True, return_counts=True
        )
        self.actuated_limit = ACTUATION_RATE * self.spring_rest[self.actuated_edges]
        self.actuated_floor = -self.actuated_limit
        actuated = np.zeros(self.num_springs, dtype=bool)
        actuated[self.actuated_edges] = True
        holds = actuated[self.vox_h_edges] | actuated[self.vox_v_edges]
        affected = np.flatnonzero(holds.any(axis=1))
        self.diagonal_sides = np.stack([self.vox_h_edges[affected], self.vox_v_edges[affected]]).transpose(2, 0, 1).copy()
        self.diagonals = self.vox_shear[affected].T.copy()
        self.kernel_arrays, self.kernel_table = _kernel_table(self)
        self.kernel_address = ctypes.addressof(self.kernel_table)

    @property
    def num_worlds(self) -> int:
        return len(self.starts["mass"]) - 1

    @property
    def num_masses(self) -> int:
        return self.pos.shape[0]

    @property
    def num_springs(self) -> int:
        return self.spring_i.shape[0]

    def robot_com_x(self) -> np.ndarray:
        """Each world's robot centre-of-mass x."""
        weighted = self.pos[:, 0][self.robot_rows] * self.com_weights
        return np.bincount(self.robot_world, weighted, minlength=self.num_worlds)

    def park(self, worlds: np.ndarray) -> None:
        """Make the worlds selected by a per-world mask inert.

        Every mass of theirs sits at the origin, at rest and immovable: their
        springs have zero length, their current and target rest lengths are
        the build-time ones again (a NaN command leaves none behind), they
        exert no force, and their masses meet no ground or strip. The other
        worlds step on exactly as before.
        """
        rows = worlds[self.mass_world]
        self.pos[rows] = 0.0
        self.vel[rows] = 0.0
        self.inv_mass[rows] = 0.0
        springs = worlds[self.spring_world]
        self.spring_current_rest[springs] = self.spring_rest[springs]
        self.spring_target_rest[springs] = self.spring_rest[springs]


# The row tables that a world's parts hold, by the kind of row they run
# over, and the kind of row each index table points into
_ROW_FIELDS = {
    "mass": ("pos", "mass", "pinned", "is_robot"),
    "spring": ("spring_i", "spring_j", "spring_rest", "spring_k"),
    "vox": ("vox_cells", "vox_corners", "vox_h_edges", "vox_v_edges", "vox_shear"),
    "act": ("actuator_cells", "actuator_springs"),
    "top": ("bridge_top",),
}
_POINTS_INTO = {
    "spring_i": "mass",
    "spring_j": "mass",
    "vox_corners": "mass",
    "vox_h_edges": "spring",
    "vox_v_edges": "spring",
    "vox_shear": "spring",
    "actuator_springs": "spring",
    "bridge_top": "mass",
}


def _concatenate(parts: list[dict]) -> tuple[dict, dict]:
    """The parts' row tables, each concatenated in order with its index
    entries offset to the rows' new ids; and each kind's row offsets. The
    tables form a part again."""
    offsets = {
        kind: np.cumsum([0] + [len(part[names[0]]) for part in parts])
        for kind, names in _ROW_FIELDS.items()
    }
    tables = {}
    for kind, names in _ROW_FIELDS.items():
        for name in names:
            columns = [part[name] for part in parts]
            ref = _POINTS_INTO.get(name)
            if ref:
                columns = [rows + offset for rows, offset in zip(columns, offsets[ref])]
            tables[name] = np.concatenate(columns)
    return tables, offsets


# edge stiffness by material code; zero for empty cells, which make no springs
_EDGE_STIFFNESS = np.array([materials.EDGE_STIFFNESS.get(code, 0.0) for code in range(materials.NUM_CODES)])
# a voxel's springs in build order: bottom, top, left, right edge, then its
# two diagonals; each as (first, second) end among its (tl, tr, bl, br) corners
_VOXEL_SPRING_ENDS = np.array([[2, 3], [0, 1], [2, 0], [3, 1], [2, 1], [3, 0]])
_VOXEL_SPRING_SCALE = np.array([1.0] * 4 + [materials.SHEAR_STIFFNESS_FACTOR] * 2)


def _first_use(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids handed out to ``keys`` in order of first use: each key's id, and
    each id's first position in ``keys``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


def _grid_rows(cells: np.ndarray, x0: float, y0: float) -> dict:
    """Mass, spring and voxel rows of a material grid, none pinned.

    Grid corner (pi, pj) sits at (x0 + pj, y0 - pi). Non-empty cells are
    visited row-major, each touching its corners in (tl, tr, bl, br) order
    and its springs in ``_VOXEL_SPRING_ENDS`` order; corners and edges are
    numbered in order of first use. Each corner weighs
    ``CORNER_MASS_PER_VOXEL`` per voxel that holds it; an edge shared by
    two voxels is stored once, with the stiffer material's constant;
    diagonals are never shared.
    """
    r, c = np.nonzero(cells)
    code = cells[r, c]
    v = r.size
    corner_pi = r[:, None] + np.array([0, 0, 1, 1])
    corner_pj = c[:, None] + np.array([0, 1, 0, 1])
    corners, first = _first_use((corner_pi * (cells.shape[1] + 1) + corner_pj).ravel())
    corners = corners.reshape(v, 4)
    pos = np.stack([x0 + corner_pj.ravel()[first], y0 - corner_pi.ravel()[first]], axis=1)
    mass = np.bincount(corners.ravel()) * CORNER_MASS_PER_VOXEL

    ends = corners[:, _VOXEL_SPRING_ENDS]  # (v, 6, 2)
    i, j = ends[..., 0], ends[..., 1]
    # an edge is known by its sorted ends, so neighbours share it; a diagonal
    # keeps its ends in order and a key of its own
    i[:, :4], j[:, :4] = np.minimum(i[:, :4], j[:, :4]), np.maximum(i[:, :4], j[:, :4])
    n = mass.size
    key = i * n + j
    key[:, 4:] = n * n + np.arange(2 * v).reshape(v, 2)
    springs, first = _first_use(key.ravel())
    spring_i, spring_j = i.ravel()[first], j.ravel()[first]
    spring_k = np.zeros(first.size)
    np.maximum.at(spring_k, springs, (_EDGE_STIFFNESS[code][:, None] * _VOXEL_SPRING_SCALE).ravel())
    d = pos[spring_i] - pos[spring_j]

    springs = springs.reshape(v, 6)
    active = (code == materials.ACTUATOR_H) | (code == materials.ACTUATOR_V)
    horizontal = (code == materials.ACTUATOR_H)[:, None]
    cells_rc = np.stack([r, c], axis=1)
    return {
        "pos": pos,
        "mass": mass,
        "pinned": np.zeros(n, dtype=bool),
        "is_robot": np.ones(n, dtype=bool),
        "spring_i": spring_i,
        "spring_j": spring_j,
        "spring_rest": np.hypot(d[:, 0], d[:, 1]),
        "spring_k": spring_k,
        "vox_cells": cells_rc,
        "vox_corners": corners[:, [2, 3, 1, 0]],
        "vox_h_edges": springs[:, 0:2],
        "vox_v_edges": springs[:, 2:4],
        "vox_shear": springs[:, 4:6],
        "actuator_cells": cells_rc[active],
        "actuator_springs": np.where(horizontal, springs[:, 0:2], springs[:, 2:4])[active],
        "bridge_top": np.zeros(0, dtype=np.int64),
    }


def _union(worlds: list[dict], morphologies: list[Morphology], terrain: TerrainSpec | None) -> WorldState:
    """The disjoint union of worlds, each given as one part of rows, at
    rest at their build-time lengths.

    Tables are concatenated in order and index tables offset, so each world
    keeps its own row order and every per-world sum keeps its terms and
    their order: a world steps bit for bit as it would alone.
    """
    tables, starts = _concatenate(worlds)
    pos, mass, rest, k = tables["pos"], tables["mass"], tables["spring_rest"], tables["spring_k"]
    m_avg = 0.5 * (mass[tables["spring_i"]] + mass[tables["spring_j"]])
    return WorldState(
        **tables,
        vel=np.zeros_like(pos),
        inv_mass=np.where(tables["pinned"], 0.0, 1.0 / mass)[:, None].repeat(2, axis=1),
        spring_current_rest=rest.copy(),
        spring_target_rest=rest.copy(),
        spring_c=DAMPING_RATIO * 2.0 * np.sqrt(k * m_avg),
        morphologies=morphologies,
        clamped_actions=np.zeros(len(worlds), dtype=np.int64),
        starts=starts,
        terrain=terrain,
    )


def _world_rows(morphology: Morphology, terrain: TerrainSpec | None) -> dict:
    """The rows of one world: the body placed with its lowest corner
    resting on the surface (y=0) and its leftmost corner at the terrain's
    spawn_x (x=0 when terrain is None), then on bridge terrain the settled
    strip's rows."""
    ok, reason = simulability_report(morphology)
    if not ok:
        raise InvalidMorphologyError(reason)
    rows, cols = np.nonzero(morphology.cells)
    spawn_x = terrain.spawn_x if terrain is not None else 0.0
    robot = _grid_rows(morphology.cells, spawn_x - cols.min(), float(rows.max() + 1))
    if terrain is None or terrain.kind != "bridge":
        return robot
    strip = _settled_strip(int(terrain.span_start), int(terrain.span_end), terrain.bridge_material)
    return _concatenate([robot, strip])[0]


def build_worlds(morphologies, terrain: TerrainSpec | None) -> WorldState:
    """The disjoint union of one world per body, in order, on one terrain.

    Each distinct body's rows are built once; bodies that repeat share
    them, and the union holds a copy per world.
    """
    morphologies = list(morphologies)
    rows = {m: _world_rows(m, terrain) for m in dict.fromkeys(morphologies)}
    return _union([rows[m] for m in morphologies], morphologies, terrain)


def build_world(morphology: Morphology, terrain: TerrainSpec | None) -> WorldState:
    """The world of one body on a terrain: a union of one."""
    return build_worlds([morphology], terrain)


def _strip_rows(span_start: int, span_end: int, material: int) -> dict:
    """The bare compliant strip, flat: a 1-voxel-thick row of ``material``,
    top at y=0, pinned at both pad junctions, with its top chain ordered by
    x. It has no voxel or actuator rows; those are a robot's."""
    rows = _grid_rows(np.full((1, span_end - span_start), material, dtype=np.int8), float(span_start), 0.0)
    x, y = rows["pos"].T
    rows.update(
        pinned=(x == span_start) | (x == span_end),
        is_robot=np.zeros(x.size, dtype=bool),
        bridge_top=np.flatnonzero(y == 0.0),
    )
    for name in _ROW_FIELDS["vox"] + _ROW_FIELDS["act"]:
        rows[name] = rows[name][:0]
    return rows


@lru_cache(maxsize=8)
def _settled_strip(span_start: int, span_end: int, material: int) -> dict:
    """The bare strip's rows at its static equilibrium, built once per span;
    a bridge world joins them after its robot's."""
    return dict(_strip_rows(span_start, span_end, material), pos=_bridge_equilibrium(span_start, span_end, material))


@lru_cache(maxsize=8)
def _bridge_equilibrium(span_start: int, span_end: int, material: int) -> np.ndarray:
    """Static shape of the unloaded strip under gravity, (masses, 2) read-only.

    Solved once per span by Newton's method on the free masses'
    coordinates, starting from the flat strip. The residual is each free
    mass's acceleration under ``net_forces`` plus gravity; its Jacobian
    is taken by central differences of that same residual, and each step
    is solved by ``_eliminate``, which calls no BLAS, so the strip's bytes
    do not depend on the OpenBLAS kernel. Stops once no free mass
    accelerates by ``STRIP_TOLERANCE`` or more; raises rather than return
    an unconverged strip.
    """
    strip = _union([_strip_rows(span_start, span_end, material)], [], None)
    free = np.flatnonzero(~strip.pinned)
    unknowns = (2 * free[:, None] + np.arange(2)).ravel()  # free coordinates in pos's flat order
    coords = strip.pos.reshape(-1)  # a view: writing it moves the strip

    def residual() -> np.ndarray:
        force = net_forces(strip)
        force[:, 1] -= GRAVITY * strip.mass
        return (force * strip.inv_mass).reshape(-1)[unknowns]

    for _ in range(STRIP_NEWTON_ITERATIONS):
        r = residual()
        if np.abs(r).max() < STRIP_TOLERANCE:
            strip.pos.setflags(write=False)
            return strip.pos
        jacobian = np.empty((r.size, r.size))
        for k, u in enumerate(unknowns):
            held = coords[u]
            coords[u] = held + STRIP_FD_STEP
            ahead = residual()
            coords[u] = held - STRIP_FD_STEP
            jacobian[:, k] = ahead - residual()
            coords[u] = held
        jacobian /= 2.0 * STRIP_FD_STEP
        coords[unknowns] -= _eliminate(jacobian, r)
    raise RuntimeError(f"bridge strip did not settle in {STRIP_NEWTON_ITERATIONS} Newton iterations")


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, by Gaussian elimination without pivoting.

    Elementwise numpy only (no BLAS or LAPACK call, no reduction), so the
    result is the same on every CPU kernel. The strip's Jacobian needs no
    pivoting: it is minus the mass-scaled tangent stiffness of a stable
    structure, so none of its leading minors is zero.
    """
    m = np.concatenate([a, b[:, None]], axis=1)
    n = b.size
    for k in range(n - 1):
        m[k + 1:, k:] -= np.multiply.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    rhs = m[:, n].copy()
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = rhs[k] / m[k, k]
        rhs[:k] -= m[:k, k] * x[k]
    return x


def _addresses(arrays: dict) -> dict:
    """Each array's data address, by name, for a kernel pointer table; every
    array must be C-contiguous float64 or int64, as the kernel reads it."""
    for name, array in arrays.items():
        if array.dtype not in (np.float64, np.int64) or not array.flags.c_contiguous:
            raise TypeError(f"the kernel needs {name} as contiguous float64 or int64, not {array.dtype}")
    return {name: array.ctypes.data for name, array in arrays.items()}


def _kernel_table(state: WorldState) -> tuple[dict, _Table]:
    """The arrays the kernel reads and writes, by their ``Table`` names: the
    state's and the kernel's scratch rows; and the kernel's pointer table
    into them, with the state's sizes and the engine's constants."""
    robots = state.robot_ids.size
    actuators = len(state.actuator_cells)
    arrays = {
        "pos": state.pos,
        "vel": state.vel,
        "rest": state.spring_current_rest,
        "target": state.spring_target_rest,
        "clamped_actions": state.clamped_actions,
        "mass": state.mass,
        "inv_mass": state.inv_mass,
        "spring_i": state.spring_i,
        "spring_j": state.spring_j,
        "spring_k": state.spring_k,
        "spring_c": state.spring_c,
        "spring_rest": state.spring_rest,
        "edge_ids": state.actuated_edges,
        "edge_limit": state.actuated_limit,
        "edge_floor": state.actuated_floor,
        "edge_slot": state.actuated_slot,
        "edge_count": state.actuated_count,
        "act_world": state.act_world,
        "diagonal_sides": state.diagonal_sides,
        "diagonal_ids": state.diagonals,
        "robot_ids": state.robot_ids,
        "robot_world": state.robot_world,
        "bridge_top": state.bridge_top,
        "mass_starts": state.starts["mass"],
        "bins": state.force_bins,
        "terms": state.force_terms,
        "net": np.zeros_like(state.pos),  # the summed forces
        "new_pos": np.zeros_like(state.pos),
        "diverged": np.zeros(state.num_worlds, dtype=np.int64),  # the last step's diverged worlds lead it
        "blown": np.zeros(1, dtype=np.int64),  # and their number
        "contact_ids": np.zeros(2 * robots, dtype=np.int64),
        "contact_w": np.zeros(2 * robots),
        "clamped": np.zeros(actuators),
        "sums": np.zeros(state.actuated_edges.size),
    }
    terrain = state.terrain
    bridge = terrain is not None and terrain.kind == "bridge"
    return arrays, _Table(
        masses=state.num_masses,
        springs=state.num_springs,
        robots=robots,
        worlds=state.num_worlds,
        chain=state.bridge_top.size // state.num_worlds,
        edges=state.actuated_edges.size,
        diagonals=state.diagonals.shape[1],
        terrain=0 if terrain is None else 2 if bridge else 1,
        actuators=actuators,
        steps_per_action=STEPS_PER_ACTION,
        dt=DT,
        stiffness=CONTACT_STIFFNESS,
        damping=CONTACT_DAMPING,
        mu=FRICTION_MU,
        limit=DIVERGENCE_LIMIT,
        span_start=terrain.span_start if bridge else 0.0,
        span_end=terrain.span_end if bridge else 0.0,
        action_low=ACTION_LOW,
        action_high=ACTION_HIGH,
        **_addresses(arrays),
    )


def _build_kernel(path: Path) -> None:
    """Compile ``_KERNEL_SOURCE`` to ``path``: into a temporary file of its
    own in the same directory, then renamed into place, so a process that
    loads ``path`` never finds a half-written library, even while another
    builds it too."""
    import subprocess
    import tempfile

    partial = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(prefix=f"{path.stem}.", suffix=".partial", dir=path.parent)
        os.close(fd)
        command = [_COMPILER, *_CFLAGS, "-o", partial, str(_KERNEL_SOURCE), "-lm"]
        done = subprocess.run(command, capture_output=True, text=True)
        complaint = (done.stderr.strip() or f"exit status {done.returncode}") if done.returncode else None
    except OSError as error:
        complaint = str(error)
    if complaint is None:
        os.replace(partial, path)
        return
    if partial is not None:
        os.unlink(partial)
    raise KernelBuildError(
        f"`{_COMPILER} {' '.join(_CFLAGS)}` could not build the simulation kernel {_KERNEL_SOURCE} "
        f"into the cache directory {path.parent}:\n{complaint}"
    )


def _load_kernel() -> ctypes.CDLL:
    """The compiled kernel, from the cache or built into it on a miss.

    Its file name carries a hash of the source and the flags, so a hit
    starts no process: it hashes the source, finds the file and loads it.
    """
    tag = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    path = _KERNEL_DIR / f"_kernel-{tag}.so"
    if not path.exists():
        _build_kernel(path)
    lib = ctypes.CDLL(str(path))
    for name, restype, extra in (
        ("vx_spring_forces", None, []),
        ("vx_contact_forces", ctypes.c_int64, []),
        ("vx_net_forces", None, []),
        ("vx_set_targets", None, [ctypes.c_void_p]),
        ("vx_run", ctypes.c_int64, [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double]),
        ("vx_fill_features", None, [ctypes.c_void_p]),
        ("vx_act", None, [ctypes.c_void_p, ctypes.c_int64]),
        ("vx_presum", None, [ctypes.c_void_p]),
        ("vx_mlp", None, []),
    ):
        function = getattr(lib, name)
        function.argtypes = [ctypes.c_void_p, *extra]
        function.restype = restype
    return lib


@lru_cache(maxsize=None)
def _kernel() -> ctypes.CDLL:
    """The kernel this process steps with, loaded on first use."""
    return _load_kernel()


def net_forces(state: WorldState) -> np.ndarray:
    """Every spring and contact force on each mass, (n, 2).

    ``spring_forces`` and ``contact_forces`` write their terms into the
    state's force table, and one scatter sums the table's used rows into
    flat (mass, axis) bins, from zero, as ``np.bincount`` does. A bin adds
    its terms in table order: the mass's springs (its ``spring_i`` ends,
    then its ``spring_j`` ends, each in spring order), its ground contact,
    its contact with the strip; a strip mass takes the reactions for which
    it is a segment's left end, then those for which it is the right end,
    each in robot-mass order. This is the kernel's own force path, the one
    ``step`` takes.
    """
    _kernel().vx_net_forces(state.kernel_address)
    return state.kernel_arrays["net"].copy()


def spring_forces(state: WorldState) -> None:
    """Write the Hooke + axial damping force of every spring into the force
    table's springs' block, as the (fx, fy, -fx, -fy) rows that
    ``net_forces`` sums into the i x, i y, j x and j y bins: exact
    action/reaction."""
    _kernel().vx_spring_forces(state.kernel_address)


def contact_forces(state: WorldState) -> int:
    """Write the robot masses' contact forces into the force table, after
    the springs' block; returns where the written terms end.

    Normal: k*depth - c*v_normal, clamped >= 0. Friction: the force that
    would cancel tangential (relative) velocity within one step, capped at
    mu * |normal|. The ground block holds each robot mass's (ft, fn) on the
    rigid surface, in two rows. On bridge terrain, robot masses over the
    span contact their own world's moving top chain, each on the segment
    whose index is the number of the chain's masses that lie left of it,
    minus one, clipped to the chain: the strip block takes one term per
    mass that sinks into it in each of six rows, ``[ft, fn, -ft*u @ left x,
    -ft*w @ right x, -fn*u @ left y, -fn*w @ right y]``, where w is the
    right end's weight and u = 1 - w the left's. A state with no terrain
    writes nothing.
    """
    return _kernel().vx_contact_forces(state.kernel_address)


def advance(
    state: WorldState, stop: int, finish_reach: float = math.inf, controller=None, gravity: float = GRAVITY
) -> np.ndarray:
    """Step every world, in one kernel call, until the first of: a step on
    which a world diverged; a step after which some mass has
    ``!(x < finish_reach)``, NaN included; and ``state.sim_time == stop``.
    With a ``controller`` table (``control.controller_table``), the kernel
    sets the actuation targets from its commands at every control step (a
    multiple of STEPS_PER_ACTION), as ``control.compute_actions`` and
    ``set_actuation_targets`` would; without one, they stay as set. Each
    step is the one ``step`` describes.

    Returns the ids of the worlds that diverged on the last step taken,
    ascending (a shared read-only empty array if none did).
    """
    arrays = state.kernel_arrays
    table = None if controller is None else controller.address
    state.sim_time += _kernel().vx_run(state.kernel_address, table, state.sim_time, stop, finish_reach, gravity)
    count = arrays["blown"][0]
    return arrays["diverged"][:count].copy() if count else _NO_WORLDS


def step(state: WorldState, gravity: float = GRAVITY) -> np.ndarray:
    """One semi-implicit Euler step of every world, DT seconds long:
    ``advance`` to one step ahead.

    The kernel advances the actuated rest lengths, writes the force table
    (``spring_forces``, ``contact_forces``) and sums it in one scatter
    (``net_forces``), so each mass adds its spring terms, then its ground
    contact, then its strip contact or the strip's reactions. Gravity is
    then subtracted from each y, and velocities, then positions, move.

    Returns the ids of the worlds that diverged, ascending (a shared
    read-only empty array if none did): those with a new position that is
    non-finite or beyond DIVERGENCE_LIMIT. They keep the positions of their
    last valid step, and garbage velocities until they are parked.
    """
    return advance(state, state.sim_time + 1, gravity=gravity)


def set_actuation_targets(state: WorldState, commands: np.ndarray) -> None:
    """Set actuation targets from one command per active voxel, in one
    kernel call.

    Commands are aligned with state.actuator_cells. Out-of-range values are
    clamped into [ACTION_LOW, ACTION_HIGH] and counted per world in
    state.clamped_actions (a NaN command stays NaN and counts as clamped).
    A spring shared by two actuators receives the mean of the two commands.
    """
    commands = np.ascontiguousarray(commands, dtype=np.float64)
    if commands.shape != (len(state.actuator_cells),):
        raise ValueError("one command per active voxel required")
    _kernel().vx_set_targets(state.kernel_address, commands.ctypes.data)
