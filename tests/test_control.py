import tracemalloc

import numpy as np
import pytest

from voxevo import control, sim_core
from voxevo.control import (
    HIDDEN_UNITS,
    OBS_DIM,
    PARAM_COUNT,
    ControllerGenome,
    compute_actions,
    controller_table,
    forward_batch,
    init_controller,
    mutate_controller,
    observation_matrix,
    unpack_params,
)
from voxevo.morphology import Morphology, random_morphology
from voxevo.sim_core import STEPS_PER_ACTION, build_world, build_worlds, set_actuation_targets, step
from voxevo.terrain import terrain_by_name

from oracles import (
    gather_observation,
    modular_forward,
    reference_actions,
    reference_network,
    reference_observations,
    reference_set_actuation_targets,
    reference_exp,
    reference_step,
    reference_tanh,
    row_worlds,
)


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
    batch = forward_batch(genome.params[None], obs[None], np.arange(17))
    for row, a in zip(obs, batch):
        assert a == pytest.approx(modular_forward(genome, row), abs=1e-12)


def test_forward_rejects_wrong_variant_and_shape(rng):
    fixed = ControllerGenome("fixed", np.zeros(0))
    with pytest.raises(ValueError):
        modular_forward(fixed, np.zeros(OBS_DIM))
    with pytest.raises(ValueError):
        modular_forward(modular(rng), np.zeros(10))
    # the kernel would read rows 9 and 11's parameters past the one row given
    with pytest.raises(ValueError, match="got 1 for 3"):
        forward_batch(modular(rng).params[None], np.zeros((3, 4, OBS_DIM)), np.array([0, 9, 11]))


def test_fixed_action_parity(rng, flat):
    # the kernel's alternation: expand on even control steps, contract on odd
    w = build_world(random_morphology(5, 5, rng), flat)
    fixed = [init_controller("fixed", rng)]
    commands = [compute_actions(fixed, w, k).tolist() for k in range(8)]
    assert commands == [[1.6] * len(w.actuator_cells), [0.6] * len(w.actuator_cells)] * 4


def test_fixed_controller_ignores_world(rng, flat):
    m = random_morphology(5, 5, rng)
    w = build_world(m, flat)
    fixed = ControllerGenome("fixed", np.zeros(0))
    before = compute_actions([fixed], w, 3).copy()
    w.pos += rng.normal(0, 0.2, w.pos.shape)
    w.vel += rng.normal(0, 1.0, w.vel.shape)
    assert np.array_equal(compute_actions([fixed], w, 3), before)
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
    actions = compute_actions([genome], w, 0)
    for a, row in zip(actions, obs):
        assert a == pytest.approx(modular_forward(genome, row), abs=1e-12)


def test_controller_input_holds_no_stale_entries(rng, flat):
    # a state keeps its controller table, whose input advance rewrites at
    # every control step: over several control steps, with one world
    # parked midway, each world of a union acts bit for bit as it does
    # alone, and every observation row matches the scalar oracle
    bodies = [random_morphology(5, 5, rng) for _ in range(3)]
    genomes = [modular(rng) for _ in bodies]
    union = build_worlds(bodies, flat)
    alone = [build_world(m, flat) for m in bodies]
    controller_table(genomes, union)
    starts = union.starts["act"]
    for k in range(6):
        if k == 3:
            union.park(np.array([False, True, False]))
            alone[1].park(np.array([True]))
        obs = observation_matrix(union, k)
        sim_core.advance(union, union.sim_time + STEPS_PER_ACTION, control=True)
        actions = union.controller.arrays["actions"]
        for w, world in enumerate(alone):
            rows = slice(starts[w], starts[w + 1])
            own = compute_actions([genomes[w]], world, k)
            assert np.array_equal(actions[rows], own)
            for row, cell, action in zip(obs[rows], world.actuator_cells, own):
                expected = gather_observation(world, cell, k)
                assert np.allclose(row, expected, rtol=0.0, atol=1e-12)
                assert action == pytest.approx(modular_forward(genomes[w], expected), abs=1e-12)
            set_actuation_targets(world, own)
            for _ in range(STEPS_PER_ACTION):
                step(world)
        assert union.sim_time == STEPS_PER_ACTION * (k + 1)


@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_compiled_fill_is_the_reference_fill_byte_for_byte(environment):
    # two equal unions, one observed, acted on and stepped by the kernel, the
    # other by numpy: over several control steps, with a world parked
    # midway and one whose velocities are all -0.0 for a step, the
    # observations and the commands hold the same bytes
    terrain = terrain_by_name(environment, (5, 5))
    rng = np.random.default_rng([5, 31])
    bodies = [random_morphology(5, 5, rng) for _ in range(3)]
    controllers = [modular(rng) for _ in bodies]
    kernel, oracle = build_worlds(bodies, terrain), build_worlds(bodies, terrain)
    for k in range(8):
        if k == 3:
            for state in (kernel, oracle):
                state.park(np.array([False, True, False]))
        if k == 5:
            for state in (kernel, oracle):
                state.vel[row_worlds(state) == 2] = -0.0
        observed = observation_matrix(kernel, k)
        assert observed.tobytes() == reference_observations(oracle, k).tobytes(), f"control step {k}"
        actions = compute_actions(controllers, kernel, k)
        assert actions.tobytes() == reference_actions(controllers, oracle, k).tobytes(), f"control step {k}"
        set_actuation_targets(kernel, actions)
        reference_set_actuation_targets(oracle, reference_actions(controllers, oracle, k))
        for _ in range(STEPS_PER_ACTION):
            assert step(kernel).tolist() == reference_step(oracle).tolist() == []
    assert kernel.pos.tobytes() == oracle.pos.tobytes()


@pytest.mark.parametrize("scale", [0.1, 3.0, 1e3])
def test_kernel_network_is_the_reference_network_byte_for_byte(scale):
    # dense rows, their material entries no indicators, of three worlds'
    # parameters: at the initial spread, where tanh and the logistic
    # saturate, and with -0.0, infinities and NaN among the inputs (a NaN
    # command may carry another sign bit than numpy's, which no result
    # reads); 1 and 7 rows, fewer than one AVX-512 vector, run only the
    # scalar remainders of the loops vectorised across rows
    rng = np.random.default_rng(11)
    params = rng.normal(0.0, scale, size=(3, PARAM_COUNT))
    obs = rng.normal(0.0, scale, size=(3, 40, OBS_DIM))
    obs[0, :4, 0] = [-0.0, np.inf, -np.inf, np.nan]
    order = rng.permutation(120)
    for count in (1, 7, 77):
        rows = order[:count]
        actions = forward_batch(params, obs, rows)
        expected = reference_network(params, rows // 40, obs.reshape(-1, OBS_DIM)[rows])
        nan = np.isnan(expected)
        assert np.count_nonzero(nan) == np.count_nonzero(rows == 3) and np.array_equal(np.isnan(actions), nan)
        assert actions[~nan].tobytes() == expected[~nan].tobytes(), f"{count} rows"


def test_network_functions_are_accurate():
    # the kernel's own tanh and logistic (the oracle holds their bits):
    # within two units in the last place of numpy's, odd, and saturating
    # exactly
    x = np.linspace(-30.0, 30.0, 600_001)
    assert np.abs(reference_tanh(x) - np.tanh(x)).max() <= 2.3e-16
    assert np.array_equal(reference_tanh(-x), -reference_tanh(x))
    assert reference_tanh(np.array([-0.0]))[0] == 0.0 and np.signbit(reference_tanh(np.array([-0.0]))[0])
    zero = np.zeros(PARAM_COUNT)
    for b2, action in [(60.0, 1.6), (-60.0, 0.6), (1e300, 1.6), (-1e300, 0.6), (0.0, 1.1)]:
        zero[-1] = b2
        assert forward_batch(zero[None], np.zeros((1, 1, OBS_DIM)), np.arange(1))[0] == action
    z = np.linspace(-60.0, 60.0, 120_001)
    assert np.abs(1.0 / (1.0 + reference_exp(-z)) - 1.0 / (1.0 + np.exp(-z))).max() <= 2.3e-16


def test_warm_modular_control_allocates_less_than_its_input():
    # a 17-world B7 union, as one generation runs it: the control steps of
    # a warm advance reuse the state's controller table and its scratch, so
    # they allocate less than one (worlds, h*w, 73) block of observations
    terrain = terrain_by_name("bridgewalker", (7, 7))
    rng = np.random.default_rng(7)
    pairs = [(random_morphology(7, 7, rng), modular(rng)) for _ in range(17)]
    state = build_worlds([m for m, _ in pairs], terrain)
    controller_table([c for _, c in pairs], state)
    sim_core.advance(state, 1, control=True)
    block_bytes = 17 * 7 * 7 * OBS_DIM * 8
    tracemalloc.start()
    try:
        sim_core.advance(state, 4 * STEPS_PER_ACTION + 1, control=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.sim_time == 4 * STEPS_PER_ACTION + 1
    assert peak < block_bytes


@pytest.mark.parametrize("variant", ["fixed", "modular"])
def test_a_controller_table_needs_one_genome_per_world_of_one_variant(monkeypatch, rng, flat, variant):
    # one genome on a 17-world union would run 16 worlds' commands from
    # parameters past its one row: controller_table refuses it, as it does
    # one genome too many and a mixed batch, before any kernel call, and
    # the state keeps no table
    union = build_worlds([random_morphology(5, 5, rng) for _ in range(17)], flat)
    monkeypatch.setattr(sim_core, "_kernel", lambda: pytest.fail("the kernel was called"))
    other = "fixed" if variant == "modular" else "modular"
    for genomes, message in [
        ([init_controller(variant, rng)], "got 1 for 17"),
        ([init_controller(variant, rng) for _ in range(18)], "got 18 for 17"),
        ([init_controller(other, rng)] + [init_controller(variant, rng) for _ in range(16)], "one controller variant"),
    ]:
        with pytest.raises(ValueError, match=message):
            controller_table(genomes, union)
        with pytest.raises(ValueError, match=message):
            compute_actions(genomes, union, 0)
        assert union.controller is None


def test_genome_parameters_are_read_only(rng):
    # a genome's parameters are its evaluator cache key and the rows a
    # controller table copies: an edit in place would give a cached fitness
    # to another network, so the genome refuses one
    genome = modular(rng)
    with pytest.raises(ValueError, match="read-only"):
        genome.params[-1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        genome.params += 0.1
