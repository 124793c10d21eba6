"""Scalar reference implementations that the batched library paths are
tested against.

Each oracle computes one voxel, one window or one network evaluation at a
time, in the most direct form, so that a test can compare it with the
vectorised code the engine runs: ``observe_voxel`` and
``gather_observation`` against ``control.observation_matrix``,
``modular_forward`` (the network's float formula, with numpy's ``tanh`` and
``exp``) against ``control.forward_batch`` to 1e-12;
``mechanical_energy`` serves the energy-balance physics checks and
``robot_center_of_mass`` the free-fall ones; ``reference_episodes`` is
the episode loop that measures every world and tests every end on every
step, against ``tasks.run_episodes``, and it steps, acts and observes on
numpy alone:
``reference_step`` is the engine's step, against the compiled
``sim_core.step``; ``reference_set_actuation_targets`` the target setter,
against ``sim_core.set_actuation_targets``; ``reference_observations``
(with ``voxel_areas`` and ``voxel_velocities``) the modular controller's
observations, against the compiled fill; ``reference_network`` (with
``reference_tanh`` and ``reference_exp``) the kernel's modular network,
against ``control.forward_batch``; ``reference_build_worlds`` (with
``reference_strip``) the numpy world builder, against the kernel's
``sim_core.build_worlds``; each bit for bit. ``pareto_layers`` peels
Pareto fronts by brute force, one ``dominates`` call per ordered pair, and
``reference_truncation_select`` fills from them, against
``evolution.truncation_select``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from voxevo import control, materials, sim_core, tasks
from voxevo.control import (
    CELL_FEATURES,
    OBS_DIM,
    ControllerGenome,
    fixed_action,
    stack_controllers,
    unpack_params,
)
from voxevo.evolution import Individual, dominates
from voxevo.morphology import InvalidMorphologyError, Morphology, simulability_report
from voxevo.sim_core import (
    ACTION_HIGH,
    ACTION_LOW,
    CONTACT_DAMPING,
    CONTACT_STIFFNESS,
    CORNER_MASS_PER_VOXEL,
    DAMPING_RATIO,
    DIVERGENCE_LIMIT,
    DT,
    FRICTION_MU,
    GRAVITY,
    STEPS_PER_ACTION,
    WorldState,
)
from voxevo.tasks import T_MAX, EpisodeResult, compute_fitness


def one_hot(code: int) -> np.ndarray:
    """5-entry indicator vector for a material code (empty included)."""
    if code not in range(materials.NUM_CODES):
        raise ValueError(f"unknown material code {code!r}")
    v = np.zeros(materials.NUM_CODES)
    v[code] = 1.0
    return v


def voxel_index(state: WorldState) -> dict[tuple[int, int], tuple[int, ...]]:
    """Cell -> its corner mass ids in (bl, br, tr, tl) order."""
    return {tuple(cell): tuple(corners) for cell, corners in zip(state.vox_cells.tolist(), state.vox_corners.tolist())}


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


def reference_episodes(pairs, terrain) -> list[EpisodeResult]:
    """One episode per (morphology, controller) pair in one union, with the
    bookkeeping done on every step: every robot's centre of mass is
    measured, a diverged world keeps the one of its last valid step, and
    every world is tested for its end. The union is built through
    ``tasks.build_worlds``; it steps, acts and observes through this
    module's numpy references only."""
    state = tasks.build_worlds([m for m, _ in pairs], terrain)
    controllers = stack_controllers([c for _, c in pairs])
    start_x = last_x = state.robot_com_x()
    results = [None] * len(pairs)
    running = np.ones(len(pairs), dtype=bool)
    for t in range(T_MAX):
        if t % STEPS_PER_ACTION == 0:
            reference_set_actuation_targets(state, reference_actions(controllers, state, t // STEPS_PER_ACTION))
        diverged = np.zeros(len(pairs), dtype=bool)
        diverged[reference_step(state)] = True
        x = state.robot_com_x()
        last_x = np.where(diverged, last_x, x)
        finished = ~diverged & (x >= terrain.finish_x)
        ended = running & (diverged | finished | (state.sim_time == T_MAX))
        for w in np.flatnonzero(ended):
            steps_used = state.sim_time if finished[w] else T_MAX
            delta = float(last_x[w] - start_x[w])
            fitness = compute_fitness(delta, bool(finished[w]), steps_used)
            results[w] = EpisodeResult(delta, bool(finished[w]), steps_used, fitness, bool(diverged[w]))
        running &= ~ended
        if not running.any():
            break
        state.park(ended)
    return results


# --- actuation and observation in numpy --------------------------------------


def reference_actions(controllers, state: WorldState, effective_step: int) -> np.ndarray:
    """``control.compute_actions`` in numpy: the fixed alternation for every
    active voxel, or ``reference_network`` on ``reference_observations``."""
    if controllers.variant == "fixed":
        return np.full(len(state.actuator_cells), fixed_action(effective_step))
    return reference_network(controllers.params, state.act_world, reference_observations(state, effective_step))


def reference_set_actuation_targets(state: WorldState, commands: np.ndarray) -> None:
    """``sim_core.set_actuation_targets`` in numpy."""
    if commands.shape[0] != len(state.actuator_cells):
        raise ValueError("one command per active voxel required")
    clamped = np.maximum(commands, ACTION_LOW)
    np.minimum(clamped, ACTION_HIGH, out=clamped)
    changed = clamped != commands
    if np.count_nonzero(changed):
        state.clamped_actions += np.bincount(state.act_world[changed], minlength=state.num_worlds)
    edges = state.actuated_edges
    sums = np.bincount(state.actuated_slot, clamped.repeat(2), minlength=edges.size)
    state.spring_target_rest[edges] = state.spring_rest[edges] * sums / state.actuated_count


# --- the modular network of engine 5 in numpy --------------------------------
# The kernel's constants (``_kernel.c``), and its operations in its order,
# each elementwise: so every bit is the kernel's, on every CPU.

LOG2E = 1.4426950408889634
SHIFTER = 6755399441055744.0  # 1.5 * 2**52: adding it rounds to an integer
SHIFTER_BITS = np.array(SHIFTER).view(np.int64)
LN2_HI = float.fromhex("0x1.62e42feep-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
EXP_TAYLOR = [1.0 / math.factorial(n) for n in range(13, -1, -1)]
TANH_NEAR = 0.15
TANH_TAYLOR = [
    -929569.0 / 638512875.0, 21844.0 / 6081075.0, -1382.0 / 155925.0, 62.0 / 2835.0, -17.0 / 315.0, 2.0 / 15.0, -1.0 / 3.0
]
LANES = 8


def reference_exp(x: np.ndarray) -> np.ndarray:
    """The kernel's ``exp8``: 2^k e^r, e^r by a degree-13 Taylor polynomial."""
    t = x * LOG2E + SHIFTER
    k = t - SHIFTER
    r = x - k * LN2_HI
    r = r - k * LN2_LO
    p = np.full_like(x, EXP_TAYLOR[0])
    for c in EXP_TAYLOR[1:]:
        p = p * r + c
    scale = (t.view(np.int64) - SHIFTER_BITS).view(np.uint64) + np.uint64(1023)
    return p * (scale << np.uint64(52)).view(np.float64)


def reference_tanh(x: np.ndarray) -> np.ndarray:
    """The kernel's ``tanh8``: an odd polynomial near 0, 1 - 2/(e^2|x| + 1)
    beyond, the sign of x put back last. Both branches are computed for every
    entry, as the kernel does, so the unused one may overflow; that raises
    nothing."""
    bits = x.view(np.int64)
    sign = bits & np.int64(-(2**63))
    a = (bits & np.int64(2**63 - 1)).view(np.float64)
    twice = np.where(a > 20.0, 20.0, a)
    twice = twice + twice
    far = 1.0 - 2.0 / (reference_exp(twice) + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        s = a * a
        q = np.full_like(s, TANH_TAYLOR[0])
        for c in TANH_TAYLOR[1:]:
            q = q * s + c
        near = a + a * s * q
    m = np.where(a < TANH_NEAR, near, far)
    return (m.view(np.int64) | sign).view(np.float64)


def reference_network(params: np.ndarray, world: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The kernel's modular network (``vx_presum``, ``vx_mlp``) on dense
    (rows, 73) observations, row ``r`` run by ``params[world[r]]``.

    Each hidden sum starts from b1 and adds W1[j, c] * obs[c] over the
    material columns in column order, then the dynamic ones in (slot,
    feature) order, then the parity. The output sum adds w2[j] * tanh(h_j)
    in 8 lanes, lane l over j = l, l + 8, l + 16, l + 24, then the lanes in
    order, then b2.
    """
    w1, b1, w2, b2 = unpack_params(params[world])
    columns = np.concatenate([control._MATERIAL_COLUMNS, control._INPUT_COLUMNS])
    h = b1.copy()
    for c in columns:
        h = h + w1[:, :, c] * obs[:, c, None]
    t = reference_tanh(h) * w2
    acc = t[:, :LANES]
    for v in range(LANES, t.shape[1], LANES):
        acc = acc + t[:, v : v + LANES]
    z = acc[:, 0]
    for lane in range(1, LANES):
        z = z + acc[:, lane]
    z = z + b2
    z = np.where(z > 60.0, 60.0, z)
    z = np.where(z < -60.0, -60.0, z)
    return ACTION_LOW + 1.0 / (1.0 + reference_exp(-z))


_QUAD_NEXT = np.array([1, 2, 3, 0])


def voxel_areas(state: WorldState) -> np.ndarray:
    """Shoelace areas of all non-empty robot voxels (row-major cell order)."""
    x = state.pos[:, 0][state.vox_corners]  # (v, 4)
    y = state.pos[:, 1][state.vox_corners]
    return 0.5 * np.abs((x * y[:, _QUAD_NEXT] - x[:, _QUAD_NEXT] * y).sum(axis=1))


def voxel_velocities(state: WorldState) -> np.ndarray:
    """Mean corner velocities of all non-empty robot voxels: the sum over the
    four corners divided by 4, which is what ``mean`` computes."""
    corners = state.vox_corners
    vel = np.stack([state.vel[:, 0][corners].sum(axis=1), state.vel[:, 1][corners].sum(axis=1)], axis=1)
    vel /= 4
    return vel


def reference_observations(state: WorldState, effective_step: int) -> np.ndarray:
    """``control.observation_matrix`` in numpy, on the state's windows
    (``control._window_tables``)."""
    windows = control._window_tables(state)
    features = np.zeros_like(windows.features)
    features[:-1, 0] = voxel_areas(state)
    features[:-1, 1:] = voxel_velocities(state)
    obs = np.empty((len(windows.material), OBS_DIM))
    obs[:, control._DYNAMIC_COLUMNS] = features.take(windows.gather)
    obs[:, control._MATERIAL_COLUMNS] = windows.material
    obs[:, -1] = effective_step % 2
    return obs


# --- the step in numpy -------------------------------------------------------


def reference_step(state: WorldState, gravity: float = GRAVITY) -> np.ndarray:
    """``sim_core.step`` in numpy: the same operations in the same order,
    writing the same arrays in place (positions, velocities, current rest
    lengths, the force table) and returning the diverged worlds' ids."""
    if state.actuated_edges.size:
        _reference_advance_actuation(state)
    f = reference_net_forces(state)
    f[:, 1] -= gravity * state.mass
    f *= state.inv_mass
    f *= DT
    state.vel += f
    new_pos = state.vel * DT
    new_pos += state.pos  # the bits of pos + vel*DT: IEEE addition commutes
    state.sim_time += 1
    if not np.abs(new_pos).max() <= DIVERGENCE_LIMIT:  # also true for NaN
        sane = (np.abs(new_pos) <= DIVERGENCE_LIMIT).all(axis=1)
        diverged = np.unique(state.mass_world[~sane])
        kept = ~np.isin(state.mass_world, diverged)
        state.pos[kept] = new_pos[kept]
        return diverged
    np.copyto(state.pos, new_pos)
    return np.empty(0, dtype=np.intp)


def _reference_advance_actuation(state: WorldState) -> None:
    edges = state.actuated_edges
    cur = state.spring_current_rest
    edge_rest = cur.take(edges)
    delta = state.spring_target_rest.take(edges)
    delta -= edge_rest
    if not np.count_nonzero(delta):
        return  # converged onto the targets; diagonals already consistent
    np.minimum(delta, state.actuated_limit, out=delta)
    np.maximum(delta, state.actuated_floor, out=delta)
    edge_rest += delta
    cur.put(edges, edge_rest)
    sides = cur.take(state.diagonal_sides)
    means = sides[0] + sides[1]  # bottom + top, left + right
    means *= 0.5
    cur.put(state.diagonals, np.hypot(means[0], means[1]))


def reference_net_forces(state: WorldState) -> np.ndarray:
    """``sim_core.net_forces`` in numpy: one bincount over the force table."""
    reference_spring_forces(state)
    stop = reference_contact_forces(state)
    return np.bincount(state.force_bins[:stop], state.force_terms[:stop], minlength=2 * state.num_masses).reshape(-1, 2)


def reference_spring_forces(state: WorldState) -> None:
    i, j = state.spring_i, state.spring_j
    d = state.pos.take(j, axis=0)
    d -= state.pos.take(i, axis=0)
    dx, dy = d[:, 0], d[:, 1]
    dist = dx * dx
    dist += dy * dy
    np.sqrt(dist, out=dist)
    np.maximum(dist, 1e-12, out=dist)
    dv = state.vel.take(j, axis=0)
    dv -= state.vel.take(i, axis=0)
    rel_speed = dv[:, 0] * dx
    rel_speed += dv[:, 1] * dy
    rel_speed /= dist
    magnitude = state.spring_k * (dist - state.spring_current_rest)
    magnitude += state.spring_c * rel_speed
    magnitude /= dist
    terms = state.force_terms[: 4 * state.num_springs].reshape(4, -1)
    np.multiply(dx, magnitude, out=terms[0])
    np.multiply(dy, magnitude, out=terms[1])
    np.negative(terms[:2], out=terms[2:])


def reference_contact_forces(state: WorldState) -> int:
    springs_end = 4 * state.num_springs
    if state.terrain is None:
        return springs_end
    rows = state.robot_rows
    px = state.pos[:, 0][rows]
    py = state.pos[:, 1][rows]
    ground_end = springs_end + 2 * state.robot_ids.size
    ft, fn = state.force_terms[springs_end:ground_end].reshape(2, -1)
    np.multiply(py, -CONTACT_STIFFNESS, out=fn)
    fn -= CONTACT_DAMPING * state.vel[:, 1][rows]
    np.maximum(fn, 0.0, out=fn)
    fn *= py < 0.0
    bridge = state.terrain.kind == "bridge"
    if bridge:
        fn *= (px <= state.terrain.span_start) | (px >= state.terrain.span_end)
    cap = FRICTION_MU * fn
    np.multiply(state.mass[rows], state.vel[:, 0][rows], out=ft)
    ft /= -DT
    np.minimum(ft, cap, out=ft)
    np.negative(cap, out=cap)
    np.maximum(ft, cap, out=ft)
    if not bridge:
        return ground_end
    in_span = (px > state.terrain.span_start) & (px < state.terrain.span_end)
    return _reference_bridge_contact(state, in_span, ground_end)


def _reference_bridge_contact(state: WorldState, in_span: np.ndarray, start: int) -> int:
    ids = state.robot_ids[in_span]
    if ids.size == 0:
        return start
    pos_x, pos_y = state.pos.T
    vel_x, vel_y = state.vel.T
    chains = state.bridge_top.reshape(state.num_worlds, -1)
    chain_x = pos_x[chains]
    world = state.robot_world[in_span]
    x = pos_x[ids]
    seg = np.clip((chain_x[world] < x[:, None]).sum(axis=1) - 1, 0, chains.shape[1] - 2)
    seg += world * chains.shape[1]
    left = state.bridge_top[seg]
    right = state.bridge_top[seg + 1]
    left_x = chain_x.take(seg)
    span = chain_x.take(seg + 1) - left_x
    np.maximum(span, 1e-9, out=span)
    w = np.clip((x - left_x) / span, 0.0, 1.0)
    u = 1 - w
    depth = pos_y[left] * u + pos_y[right] * w - pos_y[ids]
    pen = depth > 0.0
    if not np.count_nonzero(pen):
        return start
    ids = ids[pen]
    left = left[pen]
    right = right[pen]
    w = w[pen]
    u = u[pen]
    depth = depth[pen]
    rel_vy = vel_y[ids] - (vel_y[left] * u + vel_y[right] * w)
    rel_vx = vel_x[ids] - (vel_x[left] * u + vel_x[right] * w)
    block = slice(start, start + 6 * ids.size)
    terms = state.force_terms[block].reshape(6, -1)
    bins = state.force_bins[block].reshape(6, -1)
    ft, fn = terms[0], terms[1]
    np.maximum(CONTACT_STIFFNESS * depth - CONTACT_DAMPING * rel_vy, 0.0, out=fn)
    np.clip(-state.mass[ids] * rel_vx / DT, -FRICTION_MU * fn, FRICTION_MU * fn, out=ft)
    np.multiply(ids, 2, out=bins[0])
    np.multiply(left, 2, out=bins[2])
    np.multiply(right, 2, out=bins[3])
    np.add(bins[0], 1, out=bins[1])
    np.add(bins[2:4], 1, out=bins[4:6])
    reactions = terms[2:].reshape(2, 2, -1)
    np.negative(terms[:2, None], out=reactions)  # -ft, -fn at both ends
    reactions[:, 0] *= u
    reactions[:, 1] *= w
    return block.stop


# --- the world builder in numpy ----------------------------------------------
# ``sim_core.build_worlds`` numbers, places and joins a batch's rows in
# ``_kernel.c``; these functions do the same in numpy.

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


def _reference_union(worlds: list[dict], morphologies: list[Morphology], terrain) -> WorldState:
    """The disjoint union of worlds, each given as one part of rows, at
    rest at their build-time lengths."""
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


def reference_strip_rows(span_start: int, span_end: int, material: int) -> dict:
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


def reference_strip(span_start: int, span_end: int, material: int) -> WorldState:
    """The bare strip alone, flat, as the world the strip's static solve
    relaxes: a union of one with no robot and no terrain."""
    return _reference_union([reference_strip_rows(span_start, span_end, material)], [], None)


def _reference_world_rows(morphology: Morphology, terrain) -> dict:
    """The rows of one world: the body placed with its lowest corner
    resting on the surface (y=0) and its leftmost corner at the terrain's
    spawn_x (x=0 when terrain is None), then on bridge terrain the settled
    strip's rows (its positions from ``sim_core``'s static solve)."""
    ok, reason = simulability_report(morphology)
    if not ok:
        raise InvalidMorphologyError(reason)
    rows, cols = np.nonzero(morphology.cells)
    spawn_x = terrain.spawn_x if terrain is not None else 0.0
    robot = _grid_rows(morphology.cells, spawn_x - cols.min(), float(rows.max() + 1))
    if terrain is None or terrain.kind != "bridge":
        return robot
    span = int(terrain.span_start), int(terrain.span_end), terrain.bridge_material
    strip = dict(reference_strip_rows(*span), pos=sim_core._bridge_equilibrium(*span))
    return _concatenate([robot, strip])[0]


def reference_build_worlds(morphologies, terrain) -> WorldState:
    """``sim_core.build_worlds`` in numpy: each distinct body's rows built
    once, the worlds' rows concatenated in order with their index tables
    offset."""
    morphologies = list(morphologies)
    rows = {m: _reference_world_rows(m, terrain) for m in dict.fromkeys(morphologies)}
    return _reference_union([rows[m] for m in morphologies], morphologies, terrain)


# --- AFPO selection, brute force ---------------------------------------------


def pareto_layers(members: list[Individual]) -> list[list[Individual]]:
    """Peel non-dominated fronts until the pool is exhausted, one
    ``dominates`` call per ordered pair of members left."""
    remaining = list(members)
    layers = []
    while remaining:
        front = [
            m
            for m in remaining
            if not any(
                dominates((o.fitness, o.age), (m.fitness, m.age)) for o in remaining if o is not m
            )
        ]
        layers.append(front)
        front_ids = {id(m) for m in front}
        remaining = [m for m in remaining if id(m) not in front_ids]
    return layers


def reference_truncation_select(members: list[Individual], keep: int) -> list[Individual]:
    """``evolution.truncation_select`` on ``pareto_layers``: fill layer by
    layer; break ties inside the cut layer by fitness desc, then age asc,
    then id asc. Output is sorted by the same key."""
    key = lambda ind: (-ind.fitness, ind.age, ind.id)  # noqa: E731
    chosen: list[Individual] = []
    for layer in pareto_layers(members):
        room = keep - len(chosen)
        if room <= 0:
            break
        if len(layer) <= room:
            chosen.extend(layer)
        else:
            chosen.extend(sorted(layer, key=key)[:room])
    return sorted(chosen, key=key)
