import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from voxevo import sim_core
from voxevo.control import controller_table, init_controller
from voxevo.morphology import InvalidMorphologyError, Morphology, random_morphology
from voxevo.sim_core import (
    ACTUATION_RATE,
    CONTACT_STIFFNESS,
    DT,
    FRICTION_MU,
    GRAVITY,
    build_world,
    build_worlds,
    contact_forces,
    net_forces,
    set_actuation_targets,
    spring_forces,
    step,
)
from voxevo.terrain import make_bridge_terrain, make_flat_terrain

from oracles import (
    kernel_tables,
    mechanical_energy,
    observe_voxel,
    read_table,
    robot_center_of_mass,
    row_worlds,
    voxel_index,
)


def settle(state, seconds):
    for _ in range(round(seconds / DT)):
        step(state)
    return state


def weightless(state):
    """``state``, its kernel table's gravity set to zero for every later step."""
    state.kernel_table.gravity = 0.0
    return state


def spring_kinds(w):
    """Each spring's kind as the voxel tables file it: "h" for a horizontal
    edge, "v" for a vertical one, "s" for a diagonal."""
    kinds = np.full(w.num_springs, "", dtype=object)
    tables = kernel_tables(w, "vox_h_edges", "vox_v_edges", "vox_shear")
    kinds[tables["vox_h_edges"]] = "h"
    kinds[tables["vox_v_edges"]] = "v"
    kinds[tables["vox_shear"]] = "s"
    return kinds


# --- construction ---------------------------------------------------------


def test_build_1x1_counts(single_actuator, flat):
    w = build_world(single_actuator, flat)
    assert w.num_masses == 4
    assert w.num_springs == 6
    assert np.count_nonzero(spring_kinds(w) == "s") == 2


def test_build_2x1_shared_corners(flat):
    # counted by hand: 6 corners, 7 edges, 4 diagonals
    w = build_world(Morphology([[1, 1]]), flat)
    assert w.num_masses == 6
    assert w.num_springs == 11
    assert np.count_nonzero(spring_kinds(w) == "s") == 4


# every row table of a union's kernel Table by the kind of row it runs over,
# and the kind of row each index table points into
ROW_TABLES = {
    "mass": ("pos", "vel", "mass", "inv_mass", "pinned", "is_robot"),
    "spring": (
        "spring_i", "spring_j", "spring_rest", "spring_current_rest", "spring_target_rest", "spring_k", "spring_c",
    ),
    "vox": ("vox_cells", "vox_corners", "vox_h_edges", "vox_v_edges", "vox_shear"),
    "act": ("actuator_cells", "actuator_springs"),
    "top": ("bridge_top",),
}
POINTS_INTO = {
    "spring_i": "mass",
    "spring_j": "mass",
    "vox_corners": "mass",
    "vox_h_edges": "spring",
    "vox_v_edges": "spring",
    "vox_shear": "spring",
    "actuator_springs": "spring",
    "bridge_top": "mass",
}


def test_a_state_views_only_the_tables_voxevo_reads():
    # each view a state holds is read somewhere in the library: as an
    # attribute, or as one of the strip's tables that a bridge world appends
    views = {f.name for f in dataclasses.fields(sim_core.WorldState) if f.type == "np.ndarray"} - {"buffer"}
    source = "\n".join(path.read_text() for path in Path(sim_core.__file__).parent.glob("*.py"))
    unread = [name for name in views if not re.search(rf"\.{name}\b", source) and name not in sim_core._PART_TABLES]
    assert len(views) == 18 and unread == []


def test_a_state_is_made_from_the_builder_tables_alone(flat):
    # a state is made from its union's one buffer, the kernel's Table that
    # points into it, and a view of each table Python reads, under the
    # Table's name for it, so no table has a second home in a state
    made_from = {f.name for f in dataclasses.fields(sim_core.WorldState) if f.init}
    held = {"starts", "morphologies", "terrain", "buffer", "kernel_table", "sim_time", "controller"}
    views = made_from - held
    assert held <= made_from and views <= set(sim_core._struct("Table").pointees)
    state = build_world(Morphology([[3, 1], [2, 4]]), flat)
    for name in views | {"starts"}:
        for view in state.starts.values() if name == "starts" else [getattr(state, name)]:
            assert view.base is state.buffer, name


@pytest.mark.parametrize("terrain", [make_flat_terrain(), make_bridge_terrain((4, 4))], ids=["flat", "bridge"])
def test_union_rows_are_each_world_alone(terrain):
    # each world's rows of a union, one body repeated, equal its own world
    # table by table, index tables offset by the world's starts
    rng = np.random.default_rng(4)
    body, other = random_morphology(4, 4, rng), random_morphology(4, 4, rng)
    bodies = [body, other, body]
    union = build_worlds(bodies, terrain)
    alone = [build_world(m, terrain) for m in bodies]
    tables, own_tables = kernel_tables(union), [kernel_tables(w) for w in alone]
    assert union.morphologies == bodies and tables["clamped_actions"].tolist() == [0, 0, 0]
    for kind, names in ROW_TABLES.items():
        starts = union.starts[kind]
        assert starts.tolist() == np.cumsum([0] + [len(own[names[0]]) for own in own_tables]).tolist()
        for name in names:
            for k, w in enumerate(alone):
                rows = tables[name][starts[k] : starts[k + 1]]
                if name in POINTS_INTO:
                    rows = rows - union.starts[POINTS_INTO[name]][k]
                own = own_tables[k][name]
                assert rows.dtype == own.dtype and rows.shape == own.shape, name
                assert rows.tobytes() == own.tobytes(), name


def test_build_rejects_empty(flat):
    with pytest.raises(InvalidMorphologyError):
        build_world(Morphology(np.zeros((5, 5), dtype=np.int8)), flat)


@pytest.mark.parametrize(
    "terrain", [None, make_flat_terrain(), make_bridge_terrain((4, 4))], ids=["none", "flat", "bridge"]
)
def test_a_union_of_no_body_is_refused_before_it_is_built(monkeypatch, terrain):
    # a union of no worlds has no tables: it is refused with an error that
    # says so, before any allocation or kernel call
    def refuse(*args, **kwargs):
        raise AssertionError("an empty union reached the builder")

    monkeypatch.setattr(sim_core, "_build", refuse)
    monkeypatch.setattr(sim_core, "_kernel", refuse)
    with pytest.raises(ValueError, match="at least one body"):
        build_worlds([], terrain)
    with pytest.raises(ValueError, match="at least one body"):
        build_worlds(iter(()), terrain)


def test_build_rejects_disconnected(flat):
    with pytest.raises(InvalidMorphologyError):
        build_world(Morphology([[3, 0], [0, 1]]), flat)


def test_spawn_placement(flat, single_actuator):
    w = build_world(single_actuator, flat)
    assert w.pos[:, 0].min() == pytest.approx(flat.spawn_x)
    assert w.pos[:, 1].min() == pytest.approx(0.0)


def test_corner_mass_shares():
    w = build_world(Morphology([[2, 2], [2, 2]]), make_flat_terrain())
    counts = {0.25: 0, 0.5: 0, 1.0: 0}
    for m in w.mass:
        counts[round(float(m), 2)] += 1
    assert counts == {0.25: 4, 0.5: 4, 1.0: 1}
    assert w.mass[read_table(w, "is_robot")].sum() == pytest.approx(4.0)


def test_shared_boundary_spring_takes_stiffer_material(flat):
    w = build_world(Morphology([[1], [2]]), flat)  # rigid above elastic
    shared = None
    kinds = spring_kinds(w)
    for i in range(w.num_springs):
        a, b = w.spring_i[i], w.spring_j[i]
        ys = {round(float(w.pos[a, 1]), 6), round(float(w.pos[b, 1]), 6)}
        if kinds[i] == "h" and ys == {1.0}:
            shared = i
    assert shared is not None
    assert w.spring_k[shared] == 2000.0


def test_voxel_index_maps_every_nonempty_cell(small_body, flat):
    w = build_world(small_body, flat)
    index = voxel_index(w)
    assert set(index) == set(zip(*np.nonzero(small_body.cells)))
    for corners in index.values():
        assert len(set(corners)) == 4


def test_corners_and_springs_are_numbered_in_order_of_first_use(flat):
    # cells (0, 1), (1, 0), (1, 1), visited row-major, touch corners in
    # (tl, tr, bl, br) order: grid corner (1, 0) is first touched after
    # (1, 2), so row-major numbering would put it earlier. The golden
    # digests hash rows in this order.
    w = build_world(Morphology([[0, 1], [1, 1]]), flat)
    x0 = flat.spawn_x
    corners = [(0, 1), (0, 2), (1, 1), (1, 2), (1, 0), (2, 0), (2, 1), (2, 2)]  # (pi, pj) by id
    assert w.pos.tolist() == [[x0 + pj, 2.0 - pi] for pi, pj in corners]
    h, v, s = "hvs"
    # each voxel's bottom, top, left, right edge, then its two diagonals
    assert list(zip(w.spring_i.tolist(), w.spring_j.tolist(), spring_kinds(w).tolist())) == [
        (2, 3, h), (0, 1, h), (0, 2, v), (1, 3, v), (2, 1, s), (3, 0, s),
        (5, 6, h), (2, 4, h), (4, 5, v), (2, 6, v), (5, 2, s), (6, 4, s),
        (6, 7, h), (3, 7, v), (6, 3, s), (7, 2, s),
    ]
    # cell (0, 1)'s bottom edge is cell (1, 1)'s top, stored once
    tables = kernel_tables(w, "vox_h_edges", "vox_v_edges", "vox_corners")
    assert tables["vox_h_edges"].tolist() == [[0, 1], [6, 7], [12, 0]]
    assert tables["vox_v_edges"].tolist() == [[2, 3], [8, 9], [9, 13]]
    assert tables["vox_corners"].tolist() == [[2, 3, 1, 0], [5, 6, 2, 4], [6, 7, 3, 2]]


# --- actuation ------------------------------------------------------------


def test_identity_actuation_steady_state(single_actuator, flat):
    w = build_world(single_actuator, flat)
    set_actuation_targets(w, np.array([1.0]))
    settle(w, 0.5)
    assert np.allclose(w.spring_current_rest, w.spring_rest)


def test_rate_limited_full_expansion(single_actuator, flat):
    w = weightless(build_world(single_actuator, flat))
    set_actuation_targets(w, np.array([1.6]))
    n_steps = int(np.ceil(0.6 / ACTUATION_RATE))
    for i in range(n_steps):
        step(w)
    actuated = read_table(w, "actuator_springs")[0]
    assert np.allclose(w.spring_current_rest[actuated], 1.6)
    # one step earlier it must not have arrived yet
    w2 = weightless(build_world(single_actuator, flat))
    set_actuation_targets(w2, np.array([1.6]))
    for i in range(n_steps - 1):
        step(w2)
    assert np.all(w2.spring_current_rest[actuated] < 1.6)


def test_actuation_on_passive_cell_rejected(small_body, flat):
    # one command per active voxel plus one more, as if for the rigid cell
    w = build_world(small_body, flat)
    with pytest.raises(ValueError):
        set_actuation_targets(w, np.full(len(w.actuator_cells) + 1, 1.2))


def test_actuation_missing_key_rejected(small_body, flat):
    # one command short: an active voxel is left without a command
    w = build_world(small_body, flat)
    with pytest.raises(ValueError):
        set_actuation_targets(w, np.array([1.0]))


def test_out_of_range_action_clamped_and_flagged(single_actuator, flat):
    w = build_world(single_actuator, flat)
    clamped = read_table(w, "clamped_actions")
    set_actuation_targets(w, np.array([2.5]))
    assert clamped.tolist() == [1]
    assert np.all(w.spring_target_rest[read_table(w, "actuator_springs")[0]] == 1.6)
    set_actuation_targets(w, np.array([1.6]))  # in range, boundary included
    assert clamped.tolist() == [1]


def test_actuation_preserves_counts(small_body, flat):
    w = build_world(small_body, flat)
    before = (w.num_masses, w.num_springs)
    set_actuation_targets(w, np.full(len(w.actuator_cells), 1.4))
    settle(w, 0.3)
    assert (w.num_masses, w.num_springs) == before


def test_shared_actuated_spring_averages_commands(flat):
    # two horizontal actuators stacked vertically share one horizontal edge
    w = build_world(Morphology([[3], [3]]), flat)
    assert w.actuator_cells.tolist() == [[0, 0], [1, 0]]
    set_actuation_targets(w, np.array([1.6, 0.6]))
    actuated = read_table(w, "actuator_springs")
    shared = set(actuated[0]) & set(actuated[1])
    assert len(shared) == 1
    assert w.spring_target_rest[shared.pop()] == pytest.approx(1.1)


def test_diagonal_rest_follows_edges(single_actuator, flat):
    w = weightless(build_world(single_actuator, flat))
    set_actuation_targets(w, np.array([1.6]))
    for _ in range(60):
        step(w)
    d1, d2 = read_table(w, "vox_shear")[0]
    expected = np.hypot(1.6, 1.0)
    assert w.spring_current_rest[d1] == pytest.approx(expected)
    assert w.spring_current_rest[d2] == pytest.approx(expected)


# --- integration oracles ---------------------------------------------------


def test_equilibrium_state_unchanged(single_actuator):
    w = weightless(build_world(single_actuator, None))
    pos0 = w.pos.copy()
    for _ in range(100):
        step(w)
    assert np.array_equal(w.pos, pos0)
    assert np.all(w.vel == 0.0)


def test_free_fall_matches_analytic():
    # COM of an airborne body obeys projectile motion exactly in velocity,
    # and within discretization error (dt/t) in position
    w = build_world(Morphology([[3]]), None)
    y0 = robot_center_of_mass(w)[0, 1]
    checkpoints = {round(t / DT): t for t in (0.7, 0.8, 0.9, 1.0)}
    for n in range(1, 201):
        step(w)
        if n in checkpoints:
            t = checkpoints[n]
            drop = y0 - robot_center_of_mass(w)[0, 1]
            assert abs(drop - 0.5 * GRAVITY * t * t) <= 0.01 * 0.5 * GRAVITY * t * t
            vy = (w.vel[:, 1] * w.mass).sum() / w.mass.sum()
            assert vy == pytest.approx(-GRAVITY * t, abs=1e-9)


def test_airborne_internal_forces_cancel(rng):
    w = build_world(Morphology([[3, 1], [2, 4]]), None)
    w.pos += rng.normal(0.0, 0.05, w.pos.shape)
    w.vel += rng.normal(0.0, 0.1, w.vel.shape)
    net = net_forces(w).sum(axis=0)  # no terrain: springs only
    assert np.all(np.abs(net) < 1e-9)


def test_settling_under_gravity(flat):
    w = build_world(Morphology([[1]]), flat)
    w.pos[:, 1] += 0.1
    settle(w, 5.0)
    assert np.abs(w.vel).max() < 1e-3


def test_energy_non_increasing_after_transients(flat):
    # the soft elastic body rings for a while; windows are only meaningful
    # once the contact penetration has stopped oscillating
    w = build_world(Morphology([[2, 2], [2, 2]]), flat)
    w.pos[:, 1] += 0.5
    settle(w, 15.0)
    energies = [mechanical_energy(w)]
    for _ in range(4):
        for _ in range(100):
            step(w)
        energies.append(mechanical_energy(w))
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-6


def test_energy_decreases_while_oscillating():
    w = weightless(build_world(Morphology([[2]]), None))
    w.pos[0] += (0.1, -0.05)
    energies = [mechanical_energy(w)]
    for _ in range(5):
        for _ in range(100):
            step(w)
        energies.append(mechanical_energy(w))
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_divergence_carries_timestep(single_actuator, flat):
    w = build_world(single_actuator, flat)
    assert step(w).size == 0
    w.vel[:, 0] = 1e9
    assert step(w).tolist() == [0]
    assert w.sim_time == 2


def test_a_zero_step_advance_names_no_world(single_actuator, flat):
    # the worlds named are those that diverged on the last step the call
    # took: a call that takes none names none, even right after a divergence
    w = build_world(single_actuator, flat)
    w.vel[:, 0] = 1e9
    assert step(w).tolist() == [0]
    assert sim_core.advance(w, w.sim_time).tolist() == []
    assert not w.bad.any() and w.sim_time == 1


def test_advance_refuses_a_controller_table_built_for_another_state(flat):
    # a controller table's rows and windows fit the state it was built for:
    # a one-voxel state's genome driving a 17-world union of 7x7 actuators
    # would hand out 16 worlds' commands from parameters past its one row.
    # controller_table refuses it, one genome per world, and advance
    # refuses to control a state that keeps no table, before the kernel is
    # called; a state steps only with the table built for it
    rng = np.random.default_rng(30)
    alone = build_world(Morphology([[3]]), flat)
    genome = init_controller("modular", rng)
    controller_table([genome], alone)
    union = build_worlds([Morphology(np.full((7, 7), 3))] * 17, flat)
    with pytest.raises(ValueError, match="one genome per world"):
        controller_table([genome], union)
    with pytest.raises(ValueError, match="controller_table"):
        sim_core.advance(union, 10, control=True)
    assert union.controller is None and union.sim_time == 0 and not union.vel.any()
    table = controller_table([init_controller("modular", rng) for _ in range(17)], union)
    assert union.controller is table
    sim_core.advance(union, 10, control=True)
    assert union.sim_time == 10


def test_diverged_world_keeps_its_last_valid_positions(flat):
    # the middle world of three is flung: step names it, leaves its
    # positions as they were, and steps the other two as if alone
    rng = np.random.default_rng(9)
    bodies = [random_morphology(4, 4, rng) for _ in range(3)]
    union = build_worlds(bodies, flat)
    alone = [build_world(body, flat) for body in bodies]
    flung = row_worlds(union) == 1
    union.vel[flung] = 1e9
    before = union.pos[flung].copy()
    assert step(union).tolist() == [1]
    assert np.array_equal(union.pos[flung], before)
    for w in (0, 2):
        step(alone[w])
        assert np.array_equal(union.pos[row_worlds(union) == w], alone[w].pos)


@pytest.mark.parametrize("terrain", [make_flat_terrain(), make_bridge_terrain((4, 4))], ids=["flat", "bridge"])
def test_parked_world_is_inert(terrain):
    # a diverged world, once parked, rests with no force on it and is never
    # named again; its batch-mate steps exactly as it would alone
    rng = np.random.default_rng(5)
    bodies = [random_morphology(4, 4, rng) for _ in range(2)]
    union = build_worlds(bodies, terrain)
    alone = build_world(bodies[1], terrain)
    parked = row_worlds(union) == 0
    union.vel[parked] = 1e9
    assert step(union).tolist() == [0]
    step(alone)
    union.park(np.array([True, False]))
    for _ in range(100):
        assert step(union).size == 0
        step(alone)
    assert union.sim_time == alone.sim_time == 101
    assert not union.pos[parked].any() and not union.vel[parked].any()
    # no spring or contact force acts on a parked mass
    assert not spring_forces(union)[parked].any()
    assert not contact_forces(union)[parked].any()
    assert np.array_equal(union.pos[~parked], alone.pos)


def test_pinned_masses_never_move(flat):
    w = build_world(Morphology([[2, 2]]), flat)
    read_table(w, "pinned")[0] = True
    w.inv_mass[0] = 0.0
    w.vel[0] = 0.0
    anchor = w.pos[0].copy()
    w.pos[:, 1] += 0.3  # drop everything except the anchor follows gravity
    anchor = w.pos[0].copy()
    settle(w, 1.0)
    assert np.array_equal(w.pos[0], anchor)


# --- contact ---------------------------------------------------------------


def sunk_into_the_strip():
    """Three 7x7 worlds whose robots stand on the span, their lowest masses
    0.1 below the strip's surface, moving at random: their union, and each
    world alone."""
    terrain = make_bridge_terrain((7, 7))
    rng = np.random.default_rng(11)
    worlds = []
    for shift in (2.5, 6.0, 9.5):
        w = build_world(random_morphology(7, 7, rng), terrain)
        robot = read_table(w, "is_robot")
        w.pos[robot, 0] += terrain.span_start + shift - terrain.spawn_x
        # the strip sags by metres: sink the robot 0.1 below its surface
        surface = np.interp(w.pos[robot, 0], *w.pos[read_table(w, "bridge_top")].T)
        w.pos[robot, 1] -= (w.pos[robot, 1] - surface).min() + 0.1
        w.vel[robot] = rng.normal(0.0, 0.5, size=(robot.sum(), 2))
        worlds.append(w)
    union = build_worlds([w.morphologies[0] for w in worlds], terrain)
    for k, w in enumerate(worlds):
        rows = slice(union.starts["mass"][k], union.starts["mass"][k + 1])
        union.pos[rows] = w.pos
        union.vel[rows] = w.vel
    return union, worlds


def test_bridge_contact_on_the_span_is_per_world():
    # each world's rows of the union's contact forces are exactly its
    # forces alone, and the strip's top chain takes the reaction
    union, worlds = sunk_into_the_strip()
    forces = contact_forces(union)
    for k, w in enumerate(worlds):
        rows = slice(union.starts["mass"][k], union.starts["mass"][k + 1])
        alone = contact_forces(w)
        assert forces[rows].tobytes() == alone.tobytes()
        assert np.any(alone[read_table(w, "bridge_top")] != 0.0)


# sha256 of the union's pos and vel bytes after each of the 200 steps in
# the test below, pinned while the reactions were added by ``np.add.at``:
# every left-end term, then every right-end one
SUNK_UNION_SHA256 = "87e4bce5ef7fa879a2569b8e579b4b335e6ef601963b2a2533b442167e7a3868"


def test_strip_reactions_are_summed_per_world_in_order():
    # each world of the union steps bit for bit as it does alone, and a
    # strip mass still adds its reactions as a segment's left end before
    # those as a right end, each in robot-mass order
    union, worlds = sunk_into_the_strip()
    digest = hashlib.sha256()
    for _ in range(200):
        step(union)
        for k, w in enumerate(worlds):
            step(w)
            rows = slice(union.starts["mass"][k], union.starts["mass"][k + 1])
            assert union.pos[rows].tobytes() == w.pos.tobytes()
            assert union.vel[rows].tobytes() == w.vel.tobytes()
        digest.update(union.pos.tobytes())
        digest.update(union.vel.tobytes())
    assert digest.hexdigest() == SUNK_UNION_SHA256


def test_contact_zero_at_surface(single_actuator, flat):
    w = build_world(single_actuator, flat)  # resting exactly on y=0
    assert np.all(contact_forces(w) == 0.0)


def test_contact_normal_force_formula(single_actuator, flat):
    w = build_world(single_actuator, flat)
    depth = 0.01
    w.pos[:, 1] -= depth
    f = contact_forces(w)
    bottom = np.isclose(w.pos[:, 1], -depth)
    assert np.allclose(f[bottom, 1], CONTACT_STIFFNESS * depth)
    assert np.all(f[:, 0] == 0.0)  # zero velocity, zero friction


def test_friction_cone_clamp(single_actuator, flat):
    w = build_world(single_actuator, flat)
    depth = 0.01
    w.pos[:, 1] -= depth
    w.vel[:, 0] = 5.0  # sliding fast: raw stopping force exceeds the cone
    f = contact_forces(w)
    bottom = np.isclose(w.pos[:, 1], -depth)
    fn = f[bottom, 1]
    assert np.allclose(np.abs(f[bottom, 0]), FRICTION_MU * fn)
    assert np.all(f[bottom, 0] < 0.0)  # opposes motion


def test_friction_viscous_below_cone(single_actuator, flat):
    w = build_world(single_actuator, flat)
    w.pos[:, 1] -= 0.01
    w.vel[:, 0] = 1e-4  # slow: the one-step stopping force is inside the cone
    f = contact_forces(w)
    bottom = np.isclose(w.pos[:, 1], -0.01)
    expected = -w.mass[bottom] * 1e-4 / DT
    assert np.allclose(f[bottom, 0], expected)


# --- observation -----------------------------------------------------------


def test_observe_undeformed_voxel(single_actuator, flat):
    w = build_world(single_actuator, flat)
    obs = observe_voxel(w, (0, 0))
    assert obs.normalized_volume == pytest.approx(1.0)
    assert np.all(obs.center_velocity == 0.0)
    assert obs.material_one_hot.tolist() == [0, 0, 0, 1, 0]


def test_observe_stretched_quad_shoelace(single_actuator, flat):
    w = build_world(single_actuator, flat)
    bl, br, tr, tl = voxel_index(w)[(0, 0)]
    w.pos[bl] = (0.0, 0.0)
    w.pos[br] = (2.0, 0.0)
    w.pos[tr] = (2.0, 1.0)
    w.pos[tl] = (0.0, 1.0)
    assert observe_voxel(w, (0, 0)).normalized_volume == pytest.approx(2.0)


def test_observe_out_of_bounds_and_empty(flat):
    w = build_world(Morphology([[3, 0], [3, 3]]), flat)
    for cell in ((-1, 0), (0, 5), (0, 1)):
        obs = observe_voxel(w, cell)
        assert obs.normalized_volume == 0.0
        assert np.all(obs.center_velocity == 0.0)
        assert obs.material_one_hot.tolist() == [1, 0, 0, 0, 0]
        assert obs.material_one_hot.sum() == 1.0


def test_observation_velocity_is_corner_mean(single_actuator, flat):
    w = build_world(single_actuator, flat)
    w.vel[:] = [[1, 0], [0, 1], [1, 0], [0, 1]]
    obs = observe_voxel(w, (0, 0))
    assert np.allclose(obs.center_velocity, [0.5, 0.5])


def test_volume_positive_throughout_episode(rng, flat):
    from voxevo.morphology import random_morphology
    from oracles import voxel_areas
    from voxevo.control import compute_actions, init_controller

    m = random_morphology(5, 5, rng)
    genome = init_controller("modular", rng)
    w = build_world(m, flat)
    for t in range(300):
        if t % 5 == 0:
            set_actuation_targets(w, compute_actions([genome], w, t // 5))
        step(w)
        assert np.all(voxel_areas(w) > 0.0)


def test_step_determinism_bitwise(rng, flat):
    from voxevo.morphology import random_morphology

    m = random_morphology(4, 4, rng)
    w1 = build_world(m, flat)
    w2 = build_world(m, flat)
    for _ in range(200):
        step(w1)
        step(w2)
    assert np.array_equal(w1.pos, w2.pos)
    assert np.array_equal(w1.vel, w2.vel)
