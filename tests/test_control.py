import numpy as np
import pytest

from voxevo.control import (
    HIDDEN_UNITS,
    OBS_DIM,
    PARAM_COUNT,
    ControllerGenome,
    compute_actions,
    fixed_action,
    forward_batch,
    init_controller,
    mutate_controller,
    observation_matrix,
    stack_controllers,
    unpack_params,
)
from voxevo.morphology import Morphology, random_morphology
from voxevo.sim_core import build_world, step

from oracles import gather_observation, modular_forward


def modular(rng):
    return init_controller("modular", rng)


def test_parameter_count_accounting():
    # 73*32 + 32 + 32*1 + 1
    assert OBS_DIM == 9 * 8 + 1 == 73
    assert PARAM_COUNT == OBS_DIM * HIDDEN_UNITS + HIDDEN_UNITS + HIDDEN_UNITS + 1 == 2401


def test_genome_length_enforced():
    with pytest.raises(ValueError):
        ControllerGenome("modular", np.zeros(100))
    with pytest.raises(ValueError):
        ControllerGenome("fixed", np.zeros(3))
    with pytest.raises(ValueError):
        ControllerGenome("recurrent", np.zeros(0))


def test_zero_network_outputs_exactly_centre():
    genome = ControllerGenome("modular", np.zeros(PARAM_COUNT))
    obs = np.random.default_rng(0).normal(size=OBS_DIM)
    assert modular_forward(genome, obs) == 1.1


def test_squashing_bounds():
    genome = ControllerGenome("modular", np.zeros(PARAM_COUNT))
    params = np.array(genome.params)
    params[-1] = 1e3  # huge output bias
    assert modular_forward(ControllerGenome("modular", params), np.zeros(OBS_DIM)) == pytest.approx(1.6)
    params[-1] = -1e3
    assert modular_forward(ControllerGenome("modular", params), np.zeros(OBS_DIM)) == pytest.approx(0.6)


def test_forward_purity_and_open_interval(rng):
    genome = modular(rng)
    for _ in range(50):
        obs = rng.normal(size=OBS_DIM)
        a = modular_forward(genome, obs)
        assert a == modular_forward(genome, obs)
        assert 0.6 < a < 1.6


def test_forward_matches_manual_unpacking(rng):
    # independent reimplementation of the documented parameter layout
    genome = modular(rng)
    obs = rng.normal(size=OBS_DIM)
    p = genome.params
    w1 = p[: 73 * 32].reshape(32, 73)
    b1 = p[73 * 32 : 73 * 32 + 32]
    w2 = p[73 * 32 + 32 : 73 * 32 + 64]
    b2 = p[-1]
    z = w2 @ np.tanh(w1 @ obs + b1) + b2
    expected = 0.6 + 1.0 / (1.0 + np.exp(-z))
    assert modular_forward(genome, obs) == pytest.approx(expected, abs=1e-12)


def test_forward_batch_matches_scalar_path(rng):
    genome = modular(rng)
    obs = rng.normal(size=(17, OBS_DIM))
    batch = forward_batch(genome.params[None], obs[None])[0]
    for row, a in zip(obs, batch):
        assert a == pytest.approx(modular_forward(genome, row), abs=1e-12)


def test_forward_rejects_wrong_variant_and_shape(rng):
    fixed = ControllerGenome("fixed", np.zeros(0))
    with pytest.raises(ValueError):
        modular_forward(fixed, np.zeros(OBS_DIM))
    with pytest.raises(ValueError):
        modular_forward(modular(rng), np.zeros(10))


def test_fixed_action_parity():
    assert fixed_action(0) == 1.6
    assert fixed_action(1) == 0.6
    assert fixed_action(7) == 0.6
    assert fixed_action(12) == 1.6
    with pytest.raises(ValueError):
        fixed_action(-1)


def test_fixed_controller_ignores_world(rng, flat):
    m = random_morphology(5, 5, rng)
    w = build_world(m, flat)
    fixed = ControllerGenome("fixed", np.zeros(0))
    before = compute_actions(stack_controllers([fixed]), w, 3).copy()
    w.pos += rng.normal(0, 0.2, w.pos.shape)
    w.vel += rng.normal(0, 1.0, w.vel.shape)
    assert np.array_equal(compute_actions(stack_controllers([fixed]), w, 3), before)
    assert np.all(before == 0.6)


def test_gather_observation_shape_and_time_signal(rng, flat):
    m = random_morphology(5, 5, rng)
    w = build_world(m, flat)
    cell = w.actuator_cells[0]
    assert gather_observation(w, cell, 7).shape == (OBS_DIM,)
    assert gather_observation(w, cell, 7)[-1] == 1
    assert gather_observation(w, cell, 12)[-1] == 0


def test_gather_observation_corner_actuator_window(flat, single_actuator):
    w = build_world(single_actuator, flat)
    obs = gather_observation(w, (0, 0), 0)
    blocks = obs[:-1].reshape(9, 8)
    # the body cell sits at window slot 4 (centre); all others are empty
    for i, block in enumerate(blocks):
        if i == 4:
            assert block[0] == pytest.approx(1.0)
            assert block[3:].tolist() == [0, 0, 0, 1, 0]
        else:
            assert np.all(block[:3] == 0.0)
            assert block[3:].tolist() == [1, 0, 0, 0, 0]


def test_gather_observation_rejects_passive_centre(flat, small_body):
    w = build_world(small_body, flat)
    with pytest.raises(ValueError):
        gather_observation(w, (0, 1), 0)  # rigid cell
    with pytest.raises(ValueError):
        gather_observation(w, (9, 9), 0)


def test_observation_matrix_agrees_with_gather(rng, flat):
    m = random_morphology(5, 5, rng)
    w = build_world(m, flat)
    for _ in range(20):
        step(w)
    mat = observation_matrix(w, 3)
    assert mat.shape == (len(w.actuator_cells), OBS_DIM)
    for row, cell in zip(mat, w.actuator_cells):
        assert np.allclose(row, gather_observation(w, cell, 3), atol=1e-12)


def test_mutate_fixed_is_copy(rng):
    fixed = ControllerGenome("fixed", np.zeros(0))
    child = mutate_controller(fixed, rng)
    assert child == fixed


def test_mutate_modular_same_stream_identical(rng):
    genome = modular(rng)
    c1 = mutate_controller(genome, np.random.default_rng(42))
    c2 = mutate_controller(genome, np.random.default_rng(42))
    assert c1 == c2
    assert c1 != genome


def test_mutation_perturbation_half_normal_mean():
    # |N(0, 0.1)| has mean 0.1 * sqrt(2/pi) ~= 0.07979
    rng = np.random.default_rng(5)
    genome = ControllerGenome("modular", np.zeros(PARAM_COUNT))
    deltas = []
    for _ in range(50):
        child = mutate_controller(genome, rng)
        deltas.append(np.abs(child.params))
    mean_abs = float(np.mean(deltas))
    assert abs(mean_abs - 0.1 * np.sqrt(2 / np.pi)) <= 0.001


def test_init_lengths_and_spread():
    rng = np.random.default_rng(9)
    assert init_controller("fixed", rng).params.shape == (0,)
    samples = [init_controller("modular", rng).params for _ in range(50)]
    assert all(p.shape == (PARAM_COUNT,) for p in samples)
    std = float(np.std(np.concatenate(samples)))
    assert abs(std - 0.1) <= 0.002


def test_unpack_params_layout(rng):
    genome = modular(rng)
    w1, b1, w2, b2 = unpack_params(genome.params)
    assert w1.shape == (HIDDEN_UNITS, OBS_DIM)
    assert b1.shape == (HIDDEN_UNITS,)
    assert w2.shape == (HIDDEN_UNITS,)
    recon = np.concatenate([w1.ravel(), b1, w2, [b2]])
    assert np.array_equal(recon, genome.params)


def test_genome_json_round_trip(rng):
    genome = modular(rng)
    again = ControllerGenome.from_json(genome.to_json())
    assert again == genome
    fixed = ControllerGenome("fixed", np.zeros(0))
    assert ControllerGenome.from_json(fixed.to_json()) == fixed


def test_weight_sharing_single_genome_many_voxels(rng, flat):
    # same parameters drive every active voxel; actions differ only via
    # their local observations
    m = Morphology([[3, 3, 3]])
    w = build_world(m, flat)
    genome = modular(rng)
    obs = observation_matrix(w, 0)
    actions = compute_actions(stack_controllers([genome]), w, 0)
    for a, row in zip(actions, obs):
        assert a == pytest.approx(modular_forward(genome, row), abs=1e-12)
