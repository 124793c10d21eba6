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
All arrays inside a WorldState are private to one episode, so one world
never affects another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import materials
from .morphology import Morphology, simulability_report, InvalidMorphologyError
from .terrain import TerrainSpec

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

    def __init__(self, sim_time: int):
        super().__init__(f"simulation diverged at step {sim_time}")
        self.sim_time = sim_time


@dataclass
class WorldState:
    """Mutable simulation state for one robot (plus bridge strip, if any)."""

    pos: np.ndarray            # (n, 2)
    vel: np.ndarray            # (n, 2)
    mass: np.ndarray           # (n,)
    inv_mass: np.ndarray       # (n,) zero for pinned masses
    pinned: np.ndarray         # (n,) bool

    spring_i: np.ndarray       # (s,) first endpoint index
    spring_j: np.ndarray       # (s,)
    spring_rest: np.ndarray    # (s,) build-time rest lengths
    spring_current_rest: np.ndarray
    spring_target_rest: np.ndarray
    spring_k: np.ndarray
    spring_c: np.ndarray
    spring_kind: np.ndarray    # (s,) uint8

    morphology: Morphology
    terrain: TerrainSpec | None
    sim_time: int

    n_robot_masses: int

    # per-voxel tables over the robot's non-empty cells, row-major
    vox_cells: list[tuple[int, int]]
    vox_corners: np.ndarray    # (v, 4) mass ids in (bl, br, tr, tl) order
    vox_h_edges: np.ndarray    # (v, 2) spring ids (bottom, top)
    vox_v_edges: np.ndarray    # (v, 2) spring ids (left, right)
    vox_shear: np.ndarray      # (v, 2) spring ids

    # active-voxel tables, row-major over actuator cells
    actuator_cells: list[tuple[int, int]]
    actuator_springs: np.ndarray  # (a, 2) actuated edge spring ids

    # step-loop tables
    incidence: np.ndarray = field(repr=False)       # (n, s) signed: force scatter as one matmul
    force_buf: np.ndarray = field(repr=False)       # (n, 2) per-step force scratch
    actuated_edges: np.ndarray = field(repr=False)  # unique actuated edge spring ids
    actuated_limit: np.ndarray = field(repr=False)  # their per-step rest-length change limit
    affected_vox: np.ndarray = field(repr=False)    # voxel rows holding an actuated edge
    com_weights: np.ndarray = field(repr=False)     # (n_robot,) robot mass fractions

    bridge_top: np.ndarray | None = None  # top-chain mass ids ordered by x

    clamped_actions: int = 0   # telemetry: out-of-range commands clamped so far
    obs_cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_masses(self) -> int:
        return self.pos.shape[0]

    @property
    def num_springs(self) -> int:
        return self.spring_i.shape[0]

    def robot_center_of_mass(self) -> np.ndarray:
        n = self.n_robot_masses
        return self.pos[:n].T @ self.com_weights

    def robot_com_x(self) -> float:
        return float(self.pos[: self.n_robot_masses, 0] @ self.com_weights)


class _WorldBuilder:
    """Accumulates masses and springs during construction."""

    def __init__(self):
        self.point_ids: dict[tuple[int, int], int] = {}
        self.positions: list[tuple[float, float]] = []
        self.masses: list[float] = []
        self.pinned: list[bool] = []
        self.spring_ids: dict[tuple[int, int], int] = {}
        self.spring_rows: list[list] = []  # [i, j, rest, k, kind]

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

    vox_corners = []
    vox_h_edges = []
    vox_v_edges = []
    vox_shear = []
    actuator_cells = []
    actuator_springs = []

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

        vox_corners.append((ids["bl"], ids["br"], ids["tr"], ids["tl"]))
        vox_h_edges.append((bottom, top))
        vox_v_edges.append((left, right))
        vox_shear.append((d1, d2))
        if code in materials.ACTIVE_CODES:
            actuator_cells.append((r, c))
            if code == materials.ACTUATOR_H:
                actuator_springs.append((bottom, top))
            else:
                actuator_springs.append((left, right))

    n_robot = len(b.positions)

    bridge_top = None
    if terrain is not None and terrain.kind == "bridge":
        bridge_top = _build_bridge(b, terrain)
        # start the strip at its static equilibrium so episodes begin on a
        # settled surface instead of a swinging one
        equilibrium = _bridge_equilibrium(
            int(terrain.span_start), int(terrain.span_end), terrain.bridge_material
        )
        for offset, xy in enumerate(equilibrium):
            b.positions[n_robot + offset] = (xy[0], xy[1])

    pos = np.array(b.positions, dtype=np.float64)
    masses = np.array(b.masses, dtype=np.float64)
    pinned = np.array(b.pinned, dtype=bool)
    inv_mass = np.where(pinned, 0.0, 1.0 / masses)

    rows = b.spring_rows
    spring_i = np.array([r[0] for r in rows], dtype=np.int64)
    spring_j = np.array([r[1] for r in rows], dtype=np.int64)
    spring_rest = np.array([r[2] for r in rows], dtype=np.float64)
    spring_k = np.array([r[3] for r in rows], dtype=np.float64)
    spring_kind = np.array([r[4] for r in rows], dtype=np.uint8)
    m_avg = 0.5 * (masses[spring_i] + masses[spring_j])
    spring_c = DAMPING_RATIO * 2.0 * np.sqrt(spring_k * m_avg)

    incidence = np.zeros((pos.shape[0], spring_i.shape[0]))
    cols = np.arange(spring_i.shape[0])
    incidence[spring_i, cols] = 1.0
    incidence[spring_j, cols] = -1.0

    actuator_springs = np.array(actuator_springs, dtype=np.int64).reshape(-1, 2)
    actuated_edges = np.unique(actuator_springs.ravel())
    edge_set = set(actuated_edges.tolist())
    affected_vox = [
        row for row, (h, v) in enumerate(zip(vox_h_edges, vox_v_edges)) if edge_set & {*h, *v}
    ]
    robot_mass = masses[:n_robot]

    return WorldState(
        pos=pos,
        vel=np.zeros_like(pos),
        mass=masses,
        inv_mass=inv_mass,
        pinned=pinned,
        spring_i=spring_i,
        spring_j=spring_j,
        spring_rest=spring_rest,
        spring_current_rest=spring_rest.copy(),
        spring_target_rest=spring_rest.copy(),
        spring_k=spring_k,
        spring_c=spring_c,
        spring_kind=spring_kind,
        morphology=morphology,
        terrain=terrain,
        sim_time=0,
        n_robot_masses=n_robot,
        vox_cells=list(nonempty),
        vox_corners=np.array(vox_corners, dtype=np.int64),
        vox_h_edges=np.array(vox_h_edges, dtype=np.int64),
        vox_v_edges=np.array(vox_v_edges, dtype=np.int64),
        vox_shear=np.array(vox_shear, dtype=np.int64),
        actuator_cells=actuator_cells,
        actuator_springs=actuator_springs,
        incidence=incidence,
        force_buf=np.empty_like(pos),
        actuated_edges=actuated_edges,
        actuated_limit=ACTUATION_RATE * spring_rest[actuated_edges],
        affected_vox=np.array(affected_vox, dtype=np.int64),
        com_weights=robot_mass / robot_mass.sum(),
        bridge_top=bridge_top,
    )


def _build_bridge(b: _WorldBuilder, terrain: TerrainSpec) -> np.ndarray:
    """Append the compliant strip: a 1-voxel-thick elastic row, top at y=0."""
    span_start = int(terrain.span_start)
    span_end = int(terrain.span_end)
    k_edge = materials.EDGE_STIFFNESS[terrain.bridge_material]
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
def _bridge_equilibrium(span_start: int, span_end: int, material: int) -> tuple[tuple[float, float], ...]:
    """Static shape of the unloaded strip under gravity.

    Solved once per span by heavily over-damped relaxation; the extra
    velocity drain here is a statics solver device, not episode dynamics.
    """
    from .terrain import TerrainSpec

    spec = TerrainSpec(
        kind="bridge",
        total_length=float(span_end) + 1.0,
        spawn_x=0.0,
        finish_x=float(span_end),
        span_start=float(span_start),
        span_end=float(span_end),
        bridge_material=material,
    )
    b = _WorldBuilder()
    _build_bridge(b, spec)
    pos = np.array(b.positions, dtype=np.float64)
    vel = np.zeros_like(pos)
    mass = np.array(b.masses, dtype=np.float64)
    pinned = np.array(b.pinned, dtype=bool)
    inv_mass = np.where(pinned, 0.0, 1.0 / mass)
    rows = b.spring_rows
    i = np.array([r[0] for r in rows], dtype=np.int64)
    j = np.array([r[1] for r in rows], dtype=np.int64)
    rest = np.array([r[2] for r in rows], dtype=np.float64)
    k = np.array([r[3] for r in rows], dtype=np.float64)
    n = pos.shape[0]
    for it in range(60_000):
        d = pos[j] - pos[i]
        dist = np.sqrt((d * d).sum(axis=1))
        np.maximum(dist, 1e-12, out=dist)
        f_mag = k * (dist - rest)
        f = f_mag[:, None] * (d / dist[:, None])
        force = np.zeros_like(pos)
        force[:, 0] = np.bincount(i, f[:, 0], minlength=n) - np.bincount(j, f[:, 0], minlength=n)
        force[:, 1] = np.bincount(i, f[:, 1], minlength=n) - np.bincount(j, f[:, 1], minlength=n)
        force[:, 1] -= GRAVITY * mass
        vel = (vel + force * inv_mass[:, None] * DT) * 0.9
        pos = pos + vel * DT
        if it % 200 == 199 and np.abs(vel).max() < 1e-7:
            break
    return tuple((float(x), float(y)) for x, y in pos)


def set_actuation_targets(state: WorldState, commands: np.ndarray) -> None:
    """Set actuation targets from one command per active voxel.

    Commands are aligned with state.actuator_cells. Out-of-range values are
    clamped into [ACTION_LOW, ACTION_HIGH] and counted in
    state.clamped_actions. A spring shared by two actuators receives the
    mean of the two commands.
    """
    if commands.shape[0] != len(state.actuator_cells):
        raise ValueError("one command per active voxel required")
    clamped = np.clip(commands, ACTION_LOW, ACTION_HIGH)
    n_clamped = int(np.count_nonzero(clamped != commands))
    if n_clamped:
        state.clamped_actions += n_clamped
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


def spring_forces(state: WorldState, out: np.ndarray | None = None) -> np.ndarray:
    """Hooke + axial damping forces aggregated per mass; exact action/reaction."""
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
    if out is None:
        return state.incidence @ d
    np.matmul(state.incidence, d, out=out)
    return out


def contact_forces(state: WorldState, dt: float = DT, out: np.ndarray | None = None) -> np.ndarray:
    """Penalty normal force plus Coulomb-capped friction for robot masses.

    Normal: k*depth - c*v_normal, clamped >= 0. Friction: the force that
    would cancel tangential (relative) velocity within one step, capped at
    mu * |normal|. On bridge terrain, robot masses over the span contact
    the moving top chain and the reaction is applied to the strip.
    """
    if out is None:
        out = np.zeros_like(state.pos)
    if state.terrain is None:
        return out
    nr = state.n_robot_masses
    px = state.pos[:nr, 0]
    py = state.pos[:nr, 1]
    vx = state.vel[:nr, 0]
    vy = state.vel[:nr, 1]
    m = state.mass[:nr]

    # rigid surface at y=0 (whole course when flat, the pads when bridged)
    fn = np.maximum(-CONTACT_STIFFNESS * py - CONTACT_DAMPING * vy, 0.0)
    fn *= py < 0.0
    if state.terrain.kind == "bridge":
        fn *= (px <= state.terrain.span_start) | (px >= state.terrain.span_end)
    cap = FRICTION_MU * fn
    ft = m * vx
    ft /= -dt
    np.minimum(ft, cap, out=ft)
    np.negative(cap, out=cap)
    np.maximum(ft, cap, out=ft)
    out[:nr, 0] += ft
    out[:nr, 1] += fn

    if state.terrain.kind == "bridge":
        in_span = (px > state.terrain.span_start) & (px < state.terrain.span_end)
        _bridge_contact(state, out, in_span, dt)
    return out


def _bridge_contact(state: WorldState, out: np.ndarray, in_span: np.ndarray, dt: float) -> None:
    top = state.bridge_top
    tx = state.pos[top, 0]
    ty = state.pos[top, 1]
    tvx = state.vel[top, 0]
    tvy = state.vel[top, 1]

    ids = np.nonzero(in_span)[0]
    if ids.size == 0:
        return
    x = state.pos[ids, 0]
    y = state.pos[ids, 1]
    seg = np.clip(np.searchsorted(tx, x) - 1, 0, top.size - 2)
    span = tx[seg + 1] - tx[seg]
    np.maximum(span, 1e-9, out=span)
    w = np.clip((x - tx[seg]) / span, 0.0, 1.0)
    surf_y = ty[seg] * (1 - w) + ty[seg + 1] * w
    depth = surf_y - y
    pen = depth > 0.0
    if not np.any(pen):
        return
    ids = ids[pen]
    seg = seg[pen]
    w = w[pen]
    depth = depth[pen]
    surf_vx = tvx[seg] * (1 - w) + tvx[seg + 1] * w
    surf_vy = tvy[seg] * (1 - w) + tvy[seg + 1] * w
    rel_vy = state.vel[ids, 1] - surf_vy
    rel_vx = state.vel[ids, 0] - surf_vx
    fn = np.maximum(CONTACT_STIFFNESS * depth - CONTACT_DAMPING * rel_vy, 0.0)
    ft = np.clip(-state.mass[ids] * rel_vx / dt, -FRICTION_MU * fn, FRICTION_MU * fn)
    out[ids, 0] += ft
    out[ids, 1] += fn
    # equal and opposite load onto the strip's corner masses
    np.add.at(out[:, 0], top[seg], -ft * (1 - w))
    np.add.at(out[:, 0], top[seg + 1], -ft * w)
    np.add.at(out[:, 1], top[seg], -fn * (1 - w))
    np.add.at(out[:, 1], top[seg + 1], -fn * w)


def step(state: WorldState, dt: float = DT, gravity: float = GRAVITY) -> WorldState:
    """One semi-implicit Euler step; raises SimulationDiverged on blow-up."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.actuator_springs.size:
        _advance_actuation(state)
    f = spring_forces(state, out=state.force_buf)
    contact_forces(state, dt, out=f)
    f[:, 1] -= gravity * state.mass
    f *= state.inv_mass[:, None]
    f *= dt
    state.vel += f
    state.pos += state.vel * dt
    state.sim_time += 1
    # velocity blow-ups reach positions on the same step (pos += vel*dt),
    # so checking positions alone still flags the offending timestep
    extreme = float(np.abs(state.pos).max())
    if not np.isfinite(extreme) or extreme > DIVERGENCE_LIMIT:
        raise SimulationDiverged(state.sim_time)
    return state


_QUAD_NEXT = np.array([1, 2, 3, 0])


def voxel_areas(state: WorldState) -> np.ndarray:
    """Shoelace areas of all non-empty robot voxels (row-major cell order)."""
    quad = state.pos[state.vox_corners]  # (v, 4, 2)
    x = quad[:, :, 0]
    y = quad[:, :, 1]
    x_next = x[:, _QUAD_NEXT]
    y_next = y[:, _QUAD_NEXT]
    return 0.5 * np.abs((x * y_next - x_next * y).sum(axis=1))


def voxel_velocities(state: WorldState) -> np.ndarray:
    """Mean corner velocities of all non-empty robot voxels."""
    return state.vel[state.vox_corners].mean(axis=1)
