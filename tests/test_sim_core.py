import numpy as np
import pytest

from voxevo import sim_core
from voxevo.morphology import InvalidMorphologyError, Morphology, random_morphology
from voxevo.sim_core import (
    ACTUATION_RATE,
    CONTACT_STIFFNESS,
    DT,
    FRICTION_MU,
    GRAVITY,
    KIND_SHEAR,
    KIND_STRUCTURAL_H,
    SimulationDiverged,
    build_world,
    contact_forces,
    set_actuation_targets,
    spring_forces,
    stack_worlds,
    step,
)
from voxevo.terrain import make_bridge_terrain, make_flat_terrain

from oracles import mechanical_energy, observe_voxel, robot_center_of_mass, voxel_index


def settle(state, seconds, gravity=GRAVITY):
    for _ in range(round(seconds / DT)):
        step(state, gravity=gravity)
    return state


# --- construction ---------------------------------------------------------


def test_build_1x1_counts(single_actuator, flat):
    w = build_world(single_actuator, flat)
    assert w.num_masses == 4
    assert w.num_springs == 6
    assert np.count_nonzero(w.spring_kind == KIND_SHEAR) == 2


def test_build_2x1_shared_corners(flat):
    # counted by hand: 6 corners, 7 edges, 4 diagonals
    w = build_world(Morphology([[1, 1]]), flat)
    assert w.num_masses == 6
    assert w.num_springs == 11
    assert np.count_nonzero(w.spring_kind == KIND_SHEAR) == 4


def test_build_rejects_empty(flat):
    with pytest.raises(InvalidMorphologyError):
        build_world(Morphology(np.zeros((5, 5), dtype=np.int8)), flat)


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
    assert w.mass[w.is_robot].sum() == pytest.approx(4.0)


def test_shared_boundary_spring_takes_stiffer_material(flat):
    w = build_world(Morphology([[1], [2]]), flat)  # rigid above elastic
    shared = None
    for i in range(w.num_springs):
        a, b = w.spring_i[i], w.spring_j[i]
        ys = {round(float(w.pos[a, 1]), 6), round(float(w.pos[b, 1]), 6)}
        if w.spring_kind[i] == KIND_STRUCTURAL_H and ys == {1.0}:
            shared = i
    assert shared is not None
    assert w.spring_k[shared] == 2000.0


def test_voxel_index_maps_every_nonempty_cell(small_body, flat):
    w = build_world(small_body, flat)
    index = voxel_index(w)
    assert set(index) == set(small_body.nonempty_cells())
    for corners in index.values():
        assert len(set(corners)) == 4


# --- actuation ------------------------------------------------------------


def test_identity_actuation_steady_state(single_actuator, flat):
    w = build_world(single_actuator, flat)
    set_actuation_targets(w, np.array([1.0]))
    settle(w, 0.5)
    assert np.allclose(w.spring_current_rest, w.spring_rest)


def test_rate_limited_full_expansion(single_actuator, flat):
    w = build_world(single_actuator, flat)
    set_actuation_targets(w, np.array([1.6]))
    n_steps = int(np.ceil(0.6 / ACTUATION_RATE))
    for i in range(n_steps):
        step(w, gravity=0.0)
    actuated = w.actuator_springs[0]
    assert np.allclose(w.spring_current_rest[actuated], 1.6)
    # one step earlier it must not have arrived yet
    w2 = build_world(single_actuator, flat)
    set_actuation_targets(w2, np.array([1.6]))
    for i in range(n_steps - 1):
        step(w2, gravity=0.0)
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
    set_actuation_targets(w, np.array([2.5]))
    assert w.clamped_actions.tolist() == [1]
    assert np.all(w.spring_target_rest[w.actuator_springs[0]] == 1.6)
    set_actuation_targets(w, np.array([1.6]))  # in range, boundary included
    assert w.clamped_actions.tolist() == [1]


def test_actuation_preserves_counts(small_body, flat):
    w = build_world(small_body, flat)
    before = (w.num_masses, w.num_springs)
    set_actuation_targets(w, np.full(len(w.actuator_cells), 1.4))
    settle(w, 0.3)
    assert (w.num_masses, w.num_springs) == before


def test_shared_actuated_spring_averages_commands(flat):
    # two horizontal actuators stacked vertically share one horizontal edge
    w = build_world(Morphology([[3], [3]]), flat)
    assert w.actuator_cells == [(0, 0), (1, 0)]
    set_actuation_targets(w, np.array([1.6, 0.6]))
    shared = set(w.actuator_springs[0]) & set(w.actuator_springs[1])
    assert len(shared) == 1
    assert w.spring_target_rest[shared.pop()] == pytest.approx(1.1)


def test_diagonal_rest_follows_edges(single_actuator, flat):
    w = build_world(single_actuator, flat)
    set_actuation_targets(w, np.array([1.6]))
    for _ in range(60):
        step(w, gravity=0.0)
    d1, d2 = w.vox_shear[0]
    expected = np.hypot(1.6, 1.0)
    assert w.spring_current_rest[d1] == pytest.approx(expected)
    assert w.spring_current_rest[d2] == pytest.approx(expected)


# --- integration oracles ---------------------------------------------------


def test_equilibrium_state_unchanged(single_actuator):
    w = build_world(single_actuator, None)
    pos0 = w.pos.copy()
    for _ in range(100):
        step(w, gravity=0.0)
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
    net = spring_forces(w).sum(axis=0)
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
    w = build_world(Morphology([[2]]), None)
    w.pos[0] += (0.1, -0.05)
    energies = [mechanical_energy(w, gravity=0.0)]
    for _ in range(5):
        for _ in range(100):
            step(w, gravity=0.0)
        energies.append(mechanical_energy(w, gravity=0.0))
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_divergence_carries_timestep(single_actuator, flat):
    w = build_world(single_actuator, flat)
    w.vel[:, 0] = 1e9
    with pytest.raises(SimulationDiverged) as err:
        for _ in range(10):
            step(w)
    assert err.value.sim_time == 1
    assert err.value.worlds.tolist() == [0]


@pytest.mark.parametrize("terrain", [make_flat_terrain(), make_bridge_terrain((4, 4))], ids=["flat", "bridge"])
def test_parked_world_is_inert(terrain):
    # a diverged world, once parked, rests with no force on it and never
    # raises again; its batch-mate steps exactly as it would alone
    rng = np.random.default_rng(5)
    bodies = [random_morphology(4, 4, rng) for _ in range(2)]
    union = stack_worlds([build_world(m, terrain) for m in bodies])
    alone = build_world(bodies[1], terrain)
    parked = union.mass_world == 0
    union.vel[parked] = 1e9
    with pytest.raises(SimulationDiverged):
        step(union)
    step(alone)
    union.park(np.array([True, False]))
    for _ in range(100):
        step(union)
        step(alone)
    assert not union.pos[parked].any() and not union.vel[parked].any()
    assert not spring_forces(union)[parked].any() and not contact_forces(union)[parked].any()
    assert np.array_equal(union.pos[~parked], alone.pos)


def test_pinned_masses_never_move(flat):
    w = build_world(Morphology([[2, 2]]), flat)
    w.pinned[0] = True
    w.inv_mass[0] = 0.0
    w.vel[0] = 0.0
    anchor = w.pos[0].copy()
    w.pos[:, 1] += 0.3  # drop everything except the anchor follows gravity
    anchor = w.pos[0].copy()
    settle(w, 1.0)
    assert np.array_equal(w.pos[0], anchor)


# --- contact ---------------------------------------------------------------


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
    from voxevo.sim_core import voxel_areas
    from voxevo.control import compute_actions, init_controller, stack_controllers

    m = random_morphology(5, 5, rng)
    genome = init_controller("modular", rng)
    w = build_world(m, flat)
    for t in range(300):
        if t % 5 == 0:
            set_actuation_targets(w, compute_actions(stack_controllers([genome]), w, t // 5))
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
