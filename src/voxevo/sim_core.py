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
which queries none. The kernel also builds a batch's worlds: one call
counts the rows of every table and one fills them (``build_worlds``),
the settled strip appended to every bridge world. Python checks the
bodies, allocates those tables and derives the rest of each state from
them (``_union``, ``WorldState.__post_init__``), builds each state's
pointer table (``_kernel_table``) and each batch's controller table,
solves the strip's statics once per span, parks worlds and keeps each
episode's books (``tasks.run_episodes``). The kernel does numpy's
operations in numpy's order, so the physics and the built tables give
the bits the numpy code gave (``tests/oracles.py`` keeps that code as
the reference it is tested against). The modular network has numerics of
its own instead: a fixed summation order, and ``tanh`` and the logistic
built on the kernel's own ``exp``, with no libm, numpy or BLAS call, so
that each of its compiled clones (AVX-512 and the baseline, picked by the
CPU) gives the same bits (``_kernel.c`` sets them out). The system C
compiler (``_COMPILER``) builds the kernel on first use with ``_CFLAGS``:
``-O2 -ffp-contract=off`` and never ``-ffast-math`` or ``-march=native``,
either of which could move bits. The library is cached in ``_KERNEL_DIR``,
beside this file, under a name that carries a hash of the source and the
flags, so a cache hit only hashes the source and loads the file. There is
no fallback engine: a second step path would be a second set of numerics
to keep equal, so a kernel that cannot be built is an error that names the
compiler, the cache directory and the compiler's complaint.
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


# The row tables of a world by the kind of row they run over, each with the
# dtype of its rows (a sub-array dtype makes a 2-D table): the kinds of
# ``WorldState.starts`` and the tables of the kernel's ``Builder``, in its
# order
_ROW_TABLES = {
    "mass": {"pos": (np.float64, 2), "mass": np.float64, "pinned": np.bool_, "is_robot": np.bool_},
    "spring": {"spring_i": np.int64, "spring_j": np.int64, "spring_k": np.float64, "spring_rest": np.float64},
    "vox": {
        "vox_cells": (np.int64, 2),
        "vox_corners": (np.int64, 4),
        "vox_h_edges": (np.int64, 2),
        "vox_v_edges": (np.int64, 2),
        "vox_shear": (np.int64, 2),
    },
    "act": {"actuator_cells": (np.int64, 2), "actuator_springs": (np.int64, 2)},
    "top": {"bridge_top": np.int64},
}
# the tables of the part that every world of a union appends after its body
_PART_TABLES = ("pos", "mass", "pinned", "spring_i", "spring_j", "spring_k", "spring_rest", "bridge_top")
# edge stiffness by material code; zero for empty cells, which make no springs
_EDGE_STIFFNESS = np.array([materials.EDGE_STIFFNESS.get(code, 0.0) for code in range(materials.NUM_CODES)])


class _Builder(ctypes.Structure):
    """A batch's bodies and its union's tables as the kernel's builder sees
    them: the ``Builder`` of ``_kernel.c``, field for field."""

    _fields_ = (
        [
            (name, ctypes.c_int64)
            for name in ("h", "w", "worlds", "part_masses", "part_springs", "part_top", "actuator_h", "actuator_v")
        ]
        + [(name, ctypes.c_double) for name in ("left", "ground", "shear", "corner_mass")]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "cells", "grid", "stiffness", *(f"part_{name}" for name in _PART_TABLES), "scratch", "starts",
                *(name for tables in _ROW_TABLES.values() for name in tables),
            )
        ]
    )


def _rows(cells: np.ndarray, grid, left: float, ground: float, part: dict | None = None) -> tuple[dict, dict]:
    """The row tables of a union of worlds, and each kind's starts, from two
    kernel calls: ``vx_count`` sizes the tables, ``vx_build`` fills them.

    World ``w`` holds the rows of body ``cells[grid[w]]``, an (h, w) grid of
    material codes, placed with its leftmost corner at x = ``left`` and its
    lowest at y = ``ground``; then ``part``'s rows, if one is given, its ids
    offset to the world's. ``_kernel.c`` sets out the numbering.
    """
    grid = np.asarray(grid, dtype=np.int64)
    _, h, w = cells.shape
    starts = np.empty((len(_ROW_TABLES), grid.size + 1), dtype=np.int64)
    arrays = {
        "cells": cells,
        "grid": grid,
        "stiffness": _EDGE_STIFFNESS,
        "scratch": np.empty(3 * (h + 1) * (w + 1), dtype=np.int64),
        "starts": starts,
    }
    if part is not None:
        arrays.update((f"part_{name}", part[name]) for name in _PART_TABLES)
    builder = _Builder(
        h=h,
        w=w,
        worlds=grid.size,
        part_masses=0 if part is None else part["mass"].size,
        part_springs=0 if part is None else part["spring_i"].size,
        part_top=0 if part is None else part["bridge_top"].size,
        actuator_h=materials.ACTUATOR_H,
        actuator_v=materials.ACTUATOR_V,
        left=left,
        ground=ground,
        shear=materials.SHEAR_STIFFNESS_FACTOR,
        corner_mass=CORNER_MASS_PER_VOXEL,
        **{name: array.ctypes.data for name, array in arrays.items()},
    )
    kernel = _kernel()
    kernel.vx_count(ctypes.byref(builder))
    tables = {}
    for kind_tables, size in zip(_ROW_TABLES.values(), starts[:, -1].tolist()):
        for name, dtype in kind_tables.items():
            tables[name] = np.empty(size, dtype=dtype)
            setattr(builder, name, tables[name].ctypes.data)
    kernel.vx_build(ctypes.byref(builder))
    return tables, dict(zip(_ROW_TABLES, starts))


def _union(tables: dict, starts: dict, morphologies: list[Morphology], terrain: TerrainSpec | None) -> WorldState:
    """The union of worlds with these row tables and starts, at rest at
    their build-time lengths."""
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
        clamped_actions=np.zeros(len(starts["mass"]) - 1, dtype=np.int64),
        starts=starts,
        terrain=terrain,
    )


def build_worlds(morphologies, terrain: TerrainSpec | None) -> WorldState:
    """The disjoint union of one world per body, in order, on one terrain.

    Each world holds its body placed with its lowest corner resting on the
    surface (y=0) and its leftmost corner at the terrain's spawn_x (x=0
    when terrain is None), then on bridge terrain the settled strip's rows.
    Every body is checked simulable first; then the kernel numbers, places
    and joins the rows of every world (``_rows``), so bodies that repeat
    get identical rows, and Python adds the derived columns. Bodies of
    different shapes may share a union.
    """
    morphologies = list(morphologies)
    index: dict[Morphology, int] = {}
    grid = [index.setdefault(m, len(index)) for m in morphologies]
    for m in index:
        ok, reason = simulability_report(m)
        if not ok:
            raise InvalidMorphologyError(reason)
    cells = np.zeros((len(index), max(m.h for m in index), max(m.w for m in index)), dtype=np.int8)
    for k, m in enumerate(index):
        cells[k, : m.h, : m.w] = m.cells  # a smaller body padded with empty cells, which build nothing
    strip = None
    if terrain is not None and terrain.kind == "bridge":
        strip = _settled_strip(int(terrain.span_start), int(terrain.span_end), terrain.bridge_material)
    tables, starts = _rows(cells, grid, terrain.spawn_x if terrain is not None else 0.0, 0.0, strip)
    return _union(tables, starts, morphologies, terrain)


def build_world(morphology: Morphology, terrain: TerrainSpec | None) -> WorldState:
    """The world of one body on a terrain: a union of one."""
    return build_worlds([morphology], terrain)


def _strip_rows(span_start: int, span_end: int, material: int) -> tuple[dict, dict]:
    """The bare compliant strip, flat, and its starts: a 1-voxel-thick row of
    ``material`` built as a one-row body with its top at y=0, pinned at both
    pad junctions, with its top chain ordered by x. It has no voxel or
    actuator rows; those are a robot's."""
    cells = np.full((1, 1, span_end - span_start), material, dtype=np.int8)
    tables, starts = _rows(cells, [0], float(span_start), -1.0)
    x, y = tables["pos"].T
    top = np.flatnonzero(y == 0.0)
    tables.update(pinned=(x == span_start) | (x == span_end), is_robot=np.zeros(x.size, dtype=bool), bridge_top=top)
    for name in (*_ROW_TABLES["vox"], *_ROW_TABLES["act"]):
        tables[name] = tables[name][:0]
    starts.update(vox=np.zeros(2, dtype=np.int64), act=np.zeros(2, dtype=np.int64), top=np.array([0, top.size]))
    return tables, starts


@lru_cache(maxsize=8)
def _settled_strip(span_start: int, span_end: int, material: int) -> dict:
    """The bare strip's tables at its static equilibrium, built once per
    span; a bridge world appends them after its robot's."""
    return dict(_strip_rows(span_start, span_end, material)[0], pos=_bridge_equilibrium(span_start, span_end, material))


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
    strip = _union(*_strip_rows(span_start, span_end, material), [], None)
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
        ("vx_count", None, []),
        ("vx_build", None, []),
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
