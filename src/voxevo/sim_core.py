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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import materials
from .morphology import Morphology, simulability_report, InvalidMorphologyError
from .terrain import TerrainSpec

# Version of the episode numerics. Bump it with any change that can move a
# simulated trajectory or fitness by even one ulp: cached evidence and run
# manifests carry it, so results are never served across engines.
ENGINE_VERSION = 3

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

KIND_STRUCTURAL_H = 0
KIND_STRUCTURAL_V = 1
KIND_SHEAR = 2


class SimulationDiverged(RuntimeError):
    """Raised when positions become non-finite or absurdly large."""

    def __init__(self, sim_time: int, worlds: np.ndarray):
        super().__init__(f"simulation diverged at step {sim_time} in worlds {worlds.tolist()}")
        self.sim_time = sim_time
        self.worlds = worlds


@dataclass
class WorldState:
    """Mutable simulation state of one or more worlds, each a robot plus its
    bridge strip, if any.

    ``build_world`` makes a state of one world; ``stack_worlds`` joins
    several into one disjoint union that steps them all at once. Every
    per-element table is concatenated world by world: world ``w`` owns the
    rows ``starts[kind][w]:starts[kind][w + 1]`` of each kind ("mass",
    "vox", "act"), its robot's masses first. Index tables hold union ids,
    so no spring, contact or sum ever joins two worlds. A world that
    ``park`` has made inert stays in the union and keeps stepping with it,
    but it no longer moves, exerts a force or touches the ground.
    """

    pos: np.ndarray            # (n, 2)
    vel: np.ndarray            # (n, 2)
    mass: np.ndarray           # (n,)
    inv_mass: np.ndarray       # (n,) zero for pinned masses
    pinned: np.ndarray         # (n,) bool
    is_robot: np.ndarray       # (n,) bool, false for bridge-strip masses

    spring_i: np.ndarray       # (s,) first endpoint index
    spring_j: np.ndarray       # (s,)
    spring_rest: np.ndarray    # (s,) build-time rest lengths
    spring_current_rest: np.ndarray
    spring_target_rest: np.ndarray
    spring_k: np.ndarray
    spring_c: np.ndarray
    spring_kind: np.ndarray    # (s,) uint8

    # per-voxel tables over each robot's non-empty cells, row-major
    vox_cells: list[tuple[int, int]]
    vox_corners: np.ndarray    # (v, 4) mass ids in (bl, br, tr, tl) order
    vox_h_edges: np.ndarray    # (v, 2) spring ids (bottom, top)
    vox_v_edges: np.ndarray    # (v, 2) spring ids (left, right)
    vox_shear: np.ndarray      # (v, 2) spring ids

    # active-voxel tables, row-major over each robot's actuator cells
    actuator_cells: list[tuple[int, int]]
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
    act_world: np.ndarray = field(init=False, repr=False)       # world of each active voxel
    robot_ids: np.ndarray = field(init=False, repr=False)       # robot masses, ascending
    robot_world: np.ndarray = field(init=False, repr=False)     # their worlds
    com_weights: np.ndarray = field(init=False, repr=False)     # their mass fractions within their robot
    force_bins: np.ndarray = field(init=False, repr=False)      # (4s,) flat (mass, axis) bins: i x, i y, j x, j y
    actuated_edges: np.ndarray = field(init=False, repr=False)  # unique actuated edge spring ids
    actuated_limit: np.ndarray = field(init=False, repr=False)  # their per-step rest-length change limit
    affected_vox: np.ndarray = field(init=False, repr=False)    # voxel rows holding an actuated edge

    def __post_init__(self):
        worlds = np.arange(self.num_worlds)
        self.mass_world = np.repeat(worlds, np.diff(self.starts["mass"]))
        self.act_world = np.repeat(worlds, np.diff(self.starts["act"]))
        self.robot_ids = np.flatnonzero(self.is_robot)
        self.robot_world = self.mass_world[self.robot_ids]
        robot_mass = self.mass[self.robot_ids]
        self.com_weights = robot_mass / np.bincount(self.robot_world, robot_mass)[self.robot_world]
        i2, j2 = 2 * self.spring_i, 2 * self.spring_j
        self.force_bins = np.concatenate([i2, i2 + 1, j2, j2 + 1])
        self.actuated_edges = np.unique(self.actuator_springs)
        self.actuated_limit = ACTUATION_RATE * self.spring_rest[self.actuated_edges]
        actuated = np.zeros(self.num_springs, dtype=bool)
        actuated[self.actuated_edges] = True
        holds = actuated[self.vox_h_edges] | actuated[self.vox_v_edges]
        self.affected_vox = np.flatnonzero(holds.any(axis=1))

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
        weighted = self.pos[self.robot_ids, 0] * self.com_weights
        return np.bincount(self.robot_world, weighted, minlength=self.num_worlds)

    def park(self, worlds: np.ndarray) -> None:
        """Make the worlds selected by a per-world mask inert.

        Every mass of theirs sits at the origin, at rest and immovable: their
        springs have zero length and exert no force, and their masses meet no
        ground or strip. The other worlds step on exactly as before.
        """
        rows = worlds[self.mass_world]
        self.pos[rows] = 0.0
        self.vel[rows] = 0.0
        self.inv_mass[rows] = 0.0


# WorldState tables by the kind of row they run over, and the kind of row
# each index table points into
_ROW_FIELDS = {
    "mass": ("pos", "vel", "mass", "inv_mass", "pinned", "is_robot"),
    "spring": (
        "spring_i", "spring_j", "spring_rest", "spring_current_rest",
        "spring_target_rest", "spring_k", "spring_c", "spring_kind",
    ),
    "vox": ("vox_cells", "vox_corners", "vox_h_edges", "vox_v_edges", "vox_shear"),
    "act": ("actuator_cells", "actuator_springs"),
    "top": ("bridge_top",),
    "world": ("morphologies", "clamped_actions"),
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


def stack_worlds(worlds: list[WorldState]) -> WorldState:
    """Join states on one terrain and one clock into a disjoint union.

    Tables are concatenated in order and index tables offset, so each
    world keeps its own row order and every per-world sum keeps its terms
    and their order: a world steps bit for bit as it would alone.
    """
    first = worlds[0]
    if len(worlds) == 1:
        return first
    if any(w.terrain != first.terrain or w.sim_time != first.sim_time for w in worlds):
        raise ValueError("stacked worlds must share their terrain and their clock")
    offsets = {
        kind: np.cumsum([0] + [len(getattr(w, names[0])) for w in worlds]) for kind, names in _ROW_FIELDS.items()
    }
    tables = {}
    for kind, names in _ROW_FIELDS.items():
        for name in names:
            parts = [getattr(w, name) for w in worlds]
            ref = _POINTS_INTO.get(name)
            if ref:
                parts = [rows + offset for rows, offset in zip(parts, offsets[ref])]
            tables[name] = sum(parts, []) if isinstance(parts[0], list) else np.concatenate(parts)
    starts = {
        kind: np.concatenate([[0]] + [w.starts[kind][1:] + offsets[kind][k] for k, w in enumerate(worlds)])
        for kind in first.starts
    }
    return WorldState(**tables, starts=starts, terrain=first.terrain, sim_time=first.sim_time)


class _WorldBuilder:
    """Accumulates the rows of one world during construction."""

    def __init__(self):
        self.point_ids: dict[tuple[int, int], int] = {}
        self.positions: list[tuple[float, float]] = []
        self.masses: list[float] = []
        self.pinned: list[bool] = []
        self.spring_ids: dict[tuple[int, int], int] = {}
        self.spring_rows: list[list] = []  # [i, j, rest, k, kind]
        self.vox_cells: list[tuple[int, int]] = []
        self.vox_corners: list[tuple[int, ...]] = []
        self.vox_h_edges: list[tuple[int, int]] = []
        self.vox_v_edges: list[tuple[int, int]] = []
        self.vox_shear: list[tuple[int, int]] = []
        self.actuator_cells: list[tuple[int, int]] = []
        self.actuator_springs: list[tuple[int, int]] = []

    def point(self, key: tuple[int, int], xy: tuple[float, float], pin: bool = False) -> int:
        idx = self.point_ids.get(key)
        if idx is None:
            idx = len(self.positions)
            self.point_ids[key] = idx
            self.positions.append(xy)
            self.masses.append(0.0)
            self.pinned.append(pin)
        if pin:
            self.pinned[idx] = True
        return idx

    def edge(self, a: int, b: int, stiffness: float, kind: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = self.spring_ids.get(key)
        if idx is None:
            pa, pb = self.positions[a], self.positions[b]
            rest = float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))
            idx = len(self.spring_rows)
            self.spring_ids[key] = idx
            self.spring_rows.append([key[0], key[1], rest, stiffness, kind])
        else:
            # shared boundary spring: the stiffer material wins
            if stiffness > self.spring_rows[idx][3]:
                self.spring_rows[idx][3] = stiffness
        return idx

    def shear(self, a: int, b: int, stiffness: float) -> int:
        # diagonals are per-voxel, never shared
        pa, pb = self.positions[a], self.positions[b]
        rest = float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))
        idx = len(self.spring_rows)
        self.spring_rows.append([a, b, rest, stiffness, KIND_SHEAR])
        return idx

    def state(self, n_robot: int, bridge_top: np.ndarray, morphologies: list, terrain) -> WorldState:
        """The one-world state of the rows so far; the first ``n_robot``
        masses are the robot's."""
        pos = np.array(self.positions, dtype=np.float64)
        masses = np.array(self.masses, dtype=np.float64)
        pinned = np.array(self.pinned, dtype=bool)
        rows = self.spring_rows
        spring_i = np.array([r[0] for r in rows], dtype=np.int64)
        spring_j = np.array([r[1] for r in rows], dtype=np.int64)
        spring_rest = np.array([r[2] for r in rows], dtype=np.float64)
        spring_k = np.array([r[3] for r in rows], dtype=np.float64)
        m_avg = 0.5 * (masses[spring_i] + masses[spring_j])

        def table(rows, width):
            return np.array(rows, dtype=np.int64).reshape(-1, width)

        counts = {"mass": pos.shape[0], "vox": len(self.vox_cells), "act": len(self.actuator_cells)}
        return WorldState(
            pos=pos,
            vel=np.zeros_like(pos),
            mass=masses,
            inv_mass=np.where(pinned, 0.0, 1.0 / masses),
            pinned=pinned,
            is_robot=np.arange(pos.shape[0]) < n_robot,
            spring_i=spring_i,
            spring_j=spring_j,
            spring_rest=spring_rest,
            spring_current_rest=spring_rest.copy(),
            spring_target_rest=spring_rest.copy(),
            spring_k=spring_k,
            spring_c=DAMPING_RATIO * 2.0 * np.sqrt(spring_k * m_avg),
            spring_kind=np.array([r[4] for r in rows], dtype=np.uint8),
            vox_cells=self.vox_cells,
            vox_corners=table(self.vox_corners, 4),
            vox_h_edges=table(self.vox_h_edges, 2),
            vox_v_edges=table(self.vox_v_edges, 2),
            vox_shear=table(self.vox_shear, 2),
            actuator_cells=self.actuator_cells,
            actuator_springs=table(self.actuator_springs, 2),
            bridge_top=bridge_top,
            morphologies=morphologies,
            clamped_actions=np.zeros(1, dtype=np.int64),
            starts={kind: np.array([0, count]) for kind, count in counts.items()},
            terrain=terrain,
        )


def build_world(morphology: Morphology, terrain: TerrainSpec | None) -> WorldState:
    """Assemble the mass-spring world for a body on a terrain.

    The body is placed with its lowest corner resting on the surface
    (y=0) and its leftmost corner at the terrain's spawn_x (x=0 when
    terrain is None). For bridge terrain the compliant strip is built
    into the same world, pinned at both pad junctions.
    """
    ok, reason = simulability_report(morphology)
    if not ok:
        raise InvalidMorphologyError(reason)

    h = morphology.h
    cells = morphology.cells
    spawn_x = terrain.spawn_x if terrain is not None else 0.0
    b = _WorldBuilder()

    nonempty = morphology.nonempty_cells()
    # corner grid point (pi, pj) sits at raw coords (x=pj, y=h-pi)
    min_pj = min(c for _, c in nonempty)
    max_pi = max(r for r, _ in nonempty) + 1
    x0 = spawn_x - min_pj
    y0 = float(h - max_pi)

    for r, c in nonempty:
        code = int(cells[r, c])
        k_edge = materials.EDGE_STIFFNESS[code]
        corner_keys = {
            "tl": (r, c),
            "tr": (r, c + 1),
            "bl": (r + 1, c),
            "br": (r + 1, c + 1),
        }
        ids = {}
        for name, (pi, pj) in corner_keys.items():
            ids[name] = b.point((pi, pj), (x0 + pj, float(h - pi) - y0))
        for name in corner_keys:
            b.masses[ids[name]] += CORNER_MASS_PER_VOXEL

        bottom = b.edge(ids["bl"], ids["br"], k_edge, KIND_STRUCTURAL_H)
        top = b.edge(ids["tl"], ids["tr"], k_edge, KIND_STRUCTURAL_H)
        left = b.edge(ids["bl"], ids["tl"], k_edge, KIND_STRUCTURAL_V)
        right = b.edge(ids["br"], ids["tr"], k_edge, KIND_STRUCTURAL_V)
        k_shear = k_edge * materials.SHEAR_STIFFNESS_FACTOR
        d1 = b.shear(ids["bl"], ids["tr"], k_shear)
        d2 = b.shear(ids["br"], ids["tl"], k_shear)

        b.vox_cells.append((r, c))
        b.vox_corners.append((ids["bl"], ids["br"], ids["tr"], ids["tl"]))
        b.vox_h_edges.append((bottom, top))
        b.vox_v_edges.append((left, right))
        b.vox_shear.append((d1, d2))
        if code in materials.ACTIVE_CODES:
            b.actuator_cells.append((r, c))
            if code == materials.ACTUATOR_H:
                b.actuator_springs.append((bottom, top))
            else:
                b.actuator_springs.append((left, right))

    n_robot = len(b.positions)
    if terrain is None or terrain.kind != "bridge":
        return b.state(n_robot, np.zeros(0, dtype=np.int64), [morphology], terrain)
    strip = (int(terrain.span_start), int(terrain.span_end), terrain.bridge_material)
    state = b.state(n_robot, _build_bridge(b, *strip), [morphology], terrain)
    # start the strip at its static equilibrium so episodes begin on a
    # settled surface instead of a swinging one
    state.pos[n_robot:] = _bridge_equilibrium(*strip)
    return state


def _build_bridge(b: _WorldBuilder, span_start: int, span_end: int, material: int) -> np.ndarray:
    """Append the compliant strip: a 1-voxel-thick row of ``material``, top at y=0."""
    k_edge = materials.EDGE_STIFFNESS[material]
    k_shear = k_edge * materials.SHEAR_STIFFNESS_FACTOR
    top_ids = []
    # bridge corner keys use negative rows so they can never collide with
    # robot grid points: (-1, j) is the top chain, (-2, j) the bottom
    for j in range(span_start, span_end + 1):
        pin = j in (span_start, span_end)
        top_ids.append(b.point((-1, j), (float(j), 0.0), pin=pin))
        b.point((-2, j), (float(j), -1.0), pin=pin)
    for j in range(span_start, span_end):
        tl = b.point((-1, j), (float(j), 0.0))
        tr = b.point((-1, j + 1), (float(j + 1), 0.0))
        bl = b.point((-2, j), (float(j), -1.0))
        br = b.point((-2, j + 1), (float(j + 1), -1.0))
        for idx in (tl, tr, bl, br):
            b.masses[idx] += CORNER_MASS_PER_VOXEL
        b.edge(bl, br, k_edge, KIND_STRUCTURAL_H)
        b.edge(tl, tr, k_edge, KIND_STRUCTURAL_H)
        b.edge(bl, tl, k_edge, KIND_STRUCTURAL_V)
        b.edge(br, tr, k_edge, KIND_STRUCTURAL_V)
        b.shear(bl, tr, k_shear)
        b.shear(br, tl, k_shear)
    return np.array(top_ids, dtype=np.int64)


@lru_cache(maxsize=8)
def _bridge_equilibrium(span_start: int, span_end: int, material: int) -> np.ndarray:
    """Static shape of the unloaded strip under gravity, (masses, 2) read-only.

    Solved once per span by heavily over-damped relaxation of the bare
    strip under ``spring_forces``; the extra velocity drain here is a
    statics solver device, not episode dynamics.
    """
    b = _WorldBuilder()
    strip = b.state(0, _build_bridge(b, span_start, span_end, material), [], None)
    for it in range(60_000):
        force = spring_forces(strip)
        force[:, 1] -= GRAVITY * strip.mass
        strip.vel = (strip.vel + force * strip.inv_mass[:, None] * DT) * 0.9
        strip.pos = strip.pos + strip.vel * DT
        if it % 200 == 199 and np.abs(strip.vel).max() < 1e-7:
            break
    strip.pos.setflags(write=False)
    return strip.pos


def set_actuation_targets(state: WorldState, commands: np.ndarray) -> None:
    """Set actuation targets from one command per active voxel.

    Commands are aligned with state.actuator_cells. Out-of-range values are
    clamped into [ACTION_LOW, ACTION_HIGH] and counted per world in
    state.clamped_actions. A spring shared by two actuators receives the
    mean of the two commands.
    """
    if commands.shape[0] != len(state.actuator_cells):
        raise ValueError("one command per active voxel required")
    clamped = np.clip(commands, ACTION_LOW, ACTION_HIGH)
    changed = clamped != commands
    if changed.any():
        state.clamped_actions += np.bincount(state.act_world[changed], minlength=state.num_worlds)
    flat = state.actuator_springs.ravel()
    sums = np.bincount(flat, weights=np.repeat(clamped, 2), minlength=state.num_springs)
    counts = np.bincount(flat, minlength=state.num_springs)
    written = counts > 0
    state.spring_target_rest[written] = (
        state.spring_rest[written] * sums[written] / counts[written]
    )


def _advance_actuation(state: WorldState) -> None:
    """Move actuated edge rest lengths toward their targets, rate-limited."""
    edges, limit = state.actuated_edges, state.actuated_limit
    cur = state.spring_current_rest
    delta = state.spring_target_rest[edges] - cur[edges]
    if not np.any(delta):
        return  # converged onto the targets; diagonals already consistent
    np.minimum(delta, limit, out=delta)
    np.maximum(delta, -limit, out=delta)
    cur[edges] += delta
    _refresh_shear_rest(state, state.affected_vox)


def _refresh_shear_rest(state: WorldState, rows: np.ndarray) -> None:
    """Diagonal rest lengths of the given voxel rows follow their edge rest
    lengths (Pythagoras)."""
    cur = state.spring_current_rest
    h_rest = cur[state.vox_h_edges[rows]].sum(axis=1) * 0.5
    v_rest = cur[state.vox_v_edges[rows]].sum(axis=1) * 0.5
    diag = np.hypot(h_rest, v_rest)
    shear = state.vox_shear[rows]
    cur[shear[:, 0]] = diag
    cur[shear[:, 1]] = diag


def spring_forces(state: WorldState) -> np.ndarray:
    """Hooke + axial damping forces aggregated per mass; exact action/reaction.

    The scatter is one bincount over flat (mass, axis) bins, fed the
    springs' (fx, fy, -fx, -fy) columns one after another: each bin sums
    the forces of its own mass's springs in a fixed order, whatever else
    the state holds.
    """
    i, j = state.spring_i, state.spring_j
    d = np.take(state.pos, j, axis=0)
    d -= np.take(state.pos, i, axis=0)
    dist = np.sqrt(np.einsum("ij,ij->i", d, d))
    np.maximum(dist, 1e-12, out=dist)
    dv = np.take(state.vel, j, axis=0)
    dv -= np.take(state.vel, i, axis=0)
    rel_speed = np.einsum("ij,ij->i", dv, d)
    rel_speed /= dist
    magnitude = state.spring_k * (dist - state.spring_current_rest)
    magnitude += state.spring_c * rel_speed
    magnitude /= dist
    d *= magnitude[:, None]
    weights = np.concatenate([d[:, 0], d[:, 1], -d[:, 0], -d[:, 1]])
    return np.bincount(state.force_bins, weights, minlength=2 * state.num_masses).reshape(-1, 2)


def contact_forces(state: WorldState, out: np.ndarray | None = None) -> np.ndarray:
    """Penalty normal force plus Coulomb-capped friction for robot masses.

    Normal: k*depth - c*v_normal, clamped >= 0. Friction: the force that
    would cancel tangential (relative) velocity within one step, capped at
    mu * |normal|. On bridge terrain, robot masses over the span contact
    their own world's moving top chain and the reaction is applied to it.
    """
    if out is None:
        out = np.zeros_like(state.pos)
    if state.terrain is None:
        return out
    robot = state.robot_ids
    px = state.pos[robot, 0]
    py = state.pos[robot, 1]
    vx = state.vel[robot, 0]
    vy = state.vel[robot, 1]
    m = state.mass[robot]

    # rigid surface at y=0 (whole course when flat, the pads when bridged)
    fn = np.maximum(-CONTACT_STIFFNESS * py - CONTACT_DAMPING * vy, 0.0)
    fn *= py < 0.0
    if state.terrain.kind == "bridge":
        fn *= (px <= state.terrain.span_start) | (px >= state.terrain.span_end)
    cap = FRICTION_MU * fn
    ft = m * vx
    ft /= -DT
    np.minimum(ft, cap, out=ft)
    np.negative(cap, out=cap)
    np.maximum(ft, cap, out=ft)
    out[robot, 0] += ft
    out[robot, 1] += fn

    if state.terrain.kind == "bridge":
        in_span = (px > state.terrain.span_start) & (px < state.terrain.span_end)
        _bridge_contact(state, out, in_span)
    return out


def _bridge_contact(state: WorldState, out: np.ndarray, in_span: np.ndarray) -> None:
    ids = state.robot_ids[in_span]
    if ids.size == 0:
        return
    top = state.bridge_top.reshape(state.num_worlds, -1)[state.robot_world[in_span]]  # (k, T) own world's chain
    x = state.pos[ids, 0]
    y = state.pos[ids, 1]
    # segment under each mass: how many of its chain's masses lie left of it
    seg = np.clip((state.pos[top, 0] < x[:, None]).sum(axis=1) - 1, 0, top.shape[1] - 2)
    rows = np.arange(ids.size)
    left = top[rows, seg]
    right = top[rows, seg + 1]
    span = state.pos[right, 0] - state.pos[left, 0]
    np.maximum(span, 1e-9, out=span)
    w = np.clip((x - state.pos[left, 0]) / span, 0.0, 1.0)
    surf_y = state.pos[left, 1] * (1 - w) + state.pos[right, 1] * w
    depth = surf_y - y
    pen = depth > 0.0
    if not np.any(pen):
        return
    ids = ids[pen]
    left = left[pen]
    right = right[pen]
    w = w[pen]
    depth = depth[pen]
    surf_vx = state.vel[left, 0] * (1 - w) + state.vel[right, 0] * w
    surf_vy = state.vel[left, 1] * (1 - w) + state.vel[right, 1] * w
    rel_vy = state.vel[ids, 1] - surf_vy
    rel_vx = state.vel[ids, 0] - surf_vx
    fn = np.maximum(CONTACT_STIFFNESS * depth - CONTACT_DAMPING * rel_vy, 0.0)
    ft = np.clip(-state.mass[ids] * rel_vx / DT, -FRICTION_MU * fn, FRICTION_MU * fn)
    out[ids, 0] += ft
    out[ids, 1] += fn
    # equal and opposite load onto the strip's corner masses
    np.add.at(out[:, 0], left, -ft * (1 - w))
    np.add.at(out[:, 0], right, -ft * w)
    np.add.at(out[:, 1], left, -fn * (1 - w))
    np.add.at(out[:, 1], right, -fn * w)


def step(state: WorldState, gravity: float = GRAVITY) -> WorldState:
    """One semi-implicit Euler step of every world, DT seconds long.

    Raises SimulationDiverged, naming the worlds that blew up, after the
    step is complete; the other worlds' states stay valid.
    """
    if state.actuated_edges.size:
        _advance_actuation(state)
    f = spring_forces(state)
    contact_forces(state, out=f)
    f[:, 1] -= gravity * state.mass
    f *= state.inv_mass[:, None]
    f *= DT
    state.vel += f
    state.pos += state.vel * DT
    state.sim_time += 1
    # velocity blow-ups reach positions on the same step (pos += vel*DT),
    # so checking positions alone still flags the offending timestep
    if not np.abs(state.pos).max() <= DIVERGENCE_LIMIT:  # also true for NaN
        sane = (np.abs(state.pos) <= DIVERGENCE_LIMIT).all(axis=1)
        raise SimulationDiverged(state.sim_time, np.unique(state.mass_world[~sane]))
    return state


_QUAD_NEXT = np.array([1, 2, 3, 0])


def voxel_areas(state: WorldState) -> np.ndarray:
    """Shoelace areas of all non-empty robot voxels (row-major cell order)."""
    x = state.pos[:, 0][state.vox_corners]  # (v, 4)
    y = state.pos[:, 1][state.vox_corners]
    return 0.5 * np.abs((x * y[:, _QUAD_NEXT] - x[:, _QUAD_NEXT] * y).sum(axis=1))


def voxel_velocities(state: WorldState) -> np.ndarray:
    """Mean corner velocities of all non-empty robot voxels."""
    corners = state.vox_corners
    return np.stack([state.vel[:, 0][corners].mean(axis=1), state.vel[:, 1][corners].mean(axis=1)], axis=1)
