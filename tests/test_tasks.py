import numpy as np
import pytest

import voxevo.control
import voxevo.tasks
from voxevo.control import ControllerGenome, init_controller
from voxevo.morphology import InvalidMorphologyError, Morphology, random_morphology
from voxevo.sim_core import GRAVITY, build_world, spring_forces, step
from voxevo.tasks import (
    T_MAX,
    EpisodeEvaluator,
    compute_fitness,
    make_bridge_terrain,
    make_flat_terrain,
    run_episode,
    run_episodes,
    terrain_by_name,
)
from voxevo.terrain import TerrainSpec

FIXED = ControllerGenome("fixed", np.zeros(0))


# --- fitness ---------------------------------------------------------------


def test_fitness_offset_cancels_max_penalty():
    assert compute_fitness(0.0, False, 500) == 0.0


def test_fitness_hand_computed_examples():
    assert compute_fitness(6.0, True, 300) == 9.0
    assert compute_fitness(-1.2, False, 500) == -1.2


def test_fitness_affine_over_full_grid():
    for steps in range(0, 501):
        for delta in (-2.0, 0.0, 3.7):
            for finished in (False, True):
                expected = delta + (1.0 if finished else 0.0) - 0.01 * steps + 5.0
                assert compute_fitness(delta, finished, steps) == pytest.approx(expected, abs=1e-12)


def test_fitness_rejects_out_of_range_steps():
    with pytest.raises(ValueError):
        compute_fitness(0.0, False, 501)
    with pytest.raises(ValueError):
        compute_fitness(0.0, False, -1)


def test_finishing_earlier_never_scores_lower():
    for steps in range(1, 501):
        assert compute_fitness(4.0, True, steps - 1) > compute_fitness(4.0, True, steps)


# --- terrain factories ------------------------------------------------------


def test_flat_terrain_constants():
    t = make_flat_terrain()
    assert t.kind == "flat"
    assert t.finish_x - t.spawn_x == 59.0
    assert t.span_start is None


def test_bridge_terrain_constants():
    t = make_bridge_terrain()
    assert t.kind == "bridge"
    assert (t.span_start, t.span_end) == (8.0, 52.0)
    assert t.finish_x == 58.0


def test_bridge_rejects_oversized_body():
    with pytest.raises(ValueError):
        make_bridge_terrain((9, 9))


def test_terrain_by_name():
    assert terrain_by_name("walker").kind == "flat"
    assert terrain_by_name("bridgewalker").kind == "bridge"
    with pytest.raises(ValueError):
        terrain_by_name("carrier")


def test_terrain_json_round_trip():
    for t in (make_flat_terrain(), make_bridge_terrain()):
        again = TerrainSpec.from_json(t.to_json())
        assert again == t
    assert make_bridge_terrain().to_json()["pinned_x"] == [8.0, 52.0]


def test_flat_has_no_pinned_masses(flat, rng):
    w = build_world(random_morphology(5, 5, rng), flat)
    assert not w.pinned.any()


# --- episodes ---------------------------------------------------------------


def test_zero_network_barely_moves(flat):
    m = Morphology([[3, 3, 1], [2, 4, 4], [3, 1, 2]])
    zero = ControllerGenome("modular", np.zeros(2401))
    result = run_episode(m, zero, flat)
    assert result.steps_used == 500
    assert not result.finished
    assert abs(result.delta_px) < 0.5


def test_controller_queried_every_fifth_step(monkeypatch, flat, rng):
    m = random_morphology(5, 5, rng)
    calls = []
    original = voxevo.tasks.compute_actions

    def counting(genome, state, k):
        calls.append(k)
        return original(genome, state, k)

    monkeypatch.setattr(voxevo.tasks, "compute_actions", counting)
    run_episode(m, FIXED, flat)
    assert len(calls) == 100
    assert calls == list(range(100))


def test_episode_determinism(rng, flat):
    m = random_morphology(5, 5, rng)
    genome = init_controller("modular", np.random.default_rng(3))
    assert run_episode(m, genome, flat) == run_episode(m, genome, flat)


def test_episode_requires_actuator(flat):
    with pytest.raises(InvalidMorphologyError):
        run_episode(Morphology([[1, 2]]), FIXED, flat)


def test_fitness_consistent_with_fields(rng, flat):
    m = random_morphology(5, 5, rng)
    r = run_episode(m, FIXED, flat)
    assert r.fitness == compute_fitness(r.delta_px, r.finished, r.steps_used)


def test_displacement_translation_consistent(rng):
    m = random_morphology(5, 5, rng)
    base = make_flat_terrain()
    shifted = TerrainSpec(kind="flat", total_length=base.total_length, spawn_x=4.0, finish_x=base.finish_x)
    r1 = run_episode(m, FIXED, base)
    r2 = run_episode(m, FIXED, shifted)
    # not bitwise: shifted absolute coordinates round differently and the
    # contact dynamics amplify that, but there is no systematic drift
    assert r1.delta_px == pytest.approx(r2.delta_px, abs=1e-3)


def test_early_finish_stops_penalty():
    # finish line just behind the spawn COM: completion on the first step,
    # and the time penalty stops accruing
    m = Morphology([[3, 3, 3]])
    t = TerrainSpec(kind="flat", total_length=60.0, spawn_x=1.0, finish_x=2.4)
    r = run_episode(m, FIXED, t)
    assert r.finished
    assert r.steps_used < 500
    assert r.fitness == compute_fitness(r.delta_px, True, r.steps_used)


def test_fixed_episode_reproducible_from_body_alone(rng, flat):
    # no controller parameters involved: two fixed genomes give identical runs
    m = random_morphology(5, 5, rng)
    r1 = run_episode(m, ControllerGenome("fixed", np.zeros(0)), flat)
    r2 = run_episode(m, FIXED, flat)
    assert r1 == r2


# --- bridge -----------------------------------------------------------------


def test_bridge_sags_below_surface():
    w = build_world(Morphology([[3]]), make_bridge_terrain())
    top_y = w.pos[w.bridge_top, 1]
    assert top_y.min() < 0.0  # settled equilibrium sags below the pads
    mid = w.bridge_top[len(w.bridge_top) // 2]
    for _ in range(500):
        step(w)
    assert w.pos[mid, 1] < 0.0


def test_bridge_strip_starts_at_rest():
    # springs and gravity almost cancel on every free strip mass: the strip
    # solve stops once |v| < 1e-7, which leaves about 2e-6 here
    w = build_world(Morphology([[3]]), make_bridge_terrain())
    force = spring_forces(w)
    force[:, 1] -= GRAVITY * w.mass
    free = ~w.is_robot & ~w.pinned
    assert np.count_nonzero(free) == 2 * (52 - 8 + 1) - 4
    assert np.abs(force[free] / w.mass[free, None]).max() < 1e-5


def test_bridge_anchors_never_move():
    w = build_world(Morphology([[3]]), make_bridge_terrain())
    anchors = w.pos[w.pinned].copy()
    for _ in range(500):
        step(w)
    assert np.array_equal(w.pos[w.pinned], anchors)
    assert anchors[:, 0].min() == 8.0 and anchors[:, 0].max() == 52.0


def test_bridge_deforms_more_under_load():
    base = make_bridge_terrain()
    w_empty = build_world(Morphology([[3]]), base)
    empty_min = w_empty.pos[w_empty.bridge_top, 1].min()

    parked = TerrainSpec(
        kind="bridge",
        total_length=base.total_length,
        spawn_x=27.0,
        finish_x=base.finish_x,
        span_start=base.span_start,
        span_end=base.span_end,
    )
    heavy = Morphology(np.ones((5, 5), dtype=np.int8))  # all rigid, no actuators
    w = build_world(heavy, parked)
    # lower the robot onto the settled strip before releasing it
    over_robot = (w.pos[w.bridge_top, 0] > 26) & (w.pos[w.bridge_top, 0] < 34)
    w.pos[w.is_robot, 1] += w.pos[w.bridge_top, 1][over_robot].max() + 0.05
    for _ in range(2000):
        step(w)
    loaded_min = w.pos[w.bridge_top, 1].min()
    assert loaded_min < empty_min


# --- evaluator ---------------------------------------------------------------


def test_evaluator_caches_identical_genomes(rng, flat):
    m = random_morphology(4, 4, rng)
    ev = EpisodeEvaluator(flat)
    pairs = [(m, FIXED), (m, FIXED), (m, FIXED)]
    fits = ev.fitness_many(pairs)
    assert len(set(fits)) == 1
    assert ev.episodes_run == 1
    assert ev.cache_hits == 2


def test_evaluator_scores_match_single_episodes(rng, flat):
    bodies = [random_morphology(4, 4, rng) for _ in range(6)]
    pairs = [(m, FIXED) for m in bodies]
    ev = EpisodeEvaluator(flat)
    assert ev.fitness_many(pairs) == [run_episode(m, c, flat).fitness for m, c in pairs]
    assert ev.episodes_run == len(set(bodies))


def test_evaluator_batches_mixed_body_shapes(monkeypatch, rng, flat):
    # one run_episodes batch per (body shape, controller variant); each score
    # equals the pair's own episode
    pairs = [
        (random_morphology(h, h, rng), init_controller(variant, rng))
        for h, variant in [(4, "fixed"), (5, "modular"), (4, "fixed"), (5, "fixed"), (5, "modular"), (3, "fixed")]
    ]
    pairs.append(pairs[0])
    alone = [run_episode(m, c, flat).fitness for m, c in pairs]
    batches = []
    original = voxevo.tasks.run_episodes

    def recording(batch, terrain):
        batch = list(batch)
        batches.append(sorted({(m.cells.shape, c.variant) for m, c in batch}))
        return original(batch, terrain)

    monkeypatch.setattr(voxevo.tasks, "run_episodes", recording)
    ev = EpisodeEvaluator(flat)
    assert ev.fitness_many(pairs) == alone
    assert sorted(batches) == [
        [((3, 3), "fixed")], [((4, 4), "fixed")], [((5, 5), "fixed")], [((5, 5), "modular")]
    ]
    assert (ev.episodes_run, ev.cache_hits, ev.failures) == (6, 1, 0)


def test_evaluator_counts_a_failed_batch(monkeypatch, rng, flat):
    # an unexpected exception fails every episode of its batch, and only those
    small = [(random_morphology(3, 3, rng), FIXED) for _ in range(3)]
    large = [(random_morphology(4, 4, rng), FIXED) for _ in range(2)]
    original = voxevo.tasks.build_world

    def failing(morphology, terrain):
        if morphology.h == 3:
            raise RuntimeError("boom")
        return original(morphology, terrain)

    monkeypatch.setattr(voxevo.tasks, "build_world", failing)
    ev = EpisodeEvaluator(flat)
    fits = ev.fitness_many(small + large)
    assert ev.failures == len(set(small))
    assert fits[: len(small)] == [compute_fitness(0.0, False, T_MAX)] * len(small)
    monkeypatch.undo()
    assert fits[len(small) :] == [run_episode(m, c, flat).fitness for m, c in large]


def test_evaluator_survives_bad_individual(flat):
    # an invalid body inside a batch scores like a divergence instead of
    # aborting the generation
    ev = EpisodeEvaluator(flat)
    bad = Morphology([[1, 2]])  # no actuator: run_episode raises
    good = Morphology([[3]])
    fits = ev.fitness_many([(bad, FIXED), (good, FIXED)])
    assert fits[0] == compute_fitness(0.0, False, T_MAX)
    assert ev.failures == 1
    assert np.isfinite(fits[1])


# --- batched episodes ------------------------------------------------------


@pytest.mark.parametrize("size", [5, 7])
@pytest.mark.parametrize("variant", ["fixed", "modular"])
@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_batch_matches_single_episodes(environment, variant, size):
    # batches of 1, 2 and 17 give every world exactly its single-episode result
    terrain = terrain_by_name(environment, (size, size))
    rng = np.random.default_rng([size, 17])
    pairs = [(random_morphology(size, size, rng), init_controller(variant, rng)) for _ in range(17)]
    alone = [run_episode(m, c, terrain) for m, c in pairs]
    assert run_episodes(pairs[:1], terrain) == alone[:1]
    assert run_episodes(pairs[:2], terrain) == alone[:2]
    assert run_episodes(pairs, terrain) == alone


def test_batch_with_early_finishers_matches_single_episodes():
    # worlds that cross the finish line are parked in the union; the rest
    # carry on
    terrain = TerrainSpec(kind="flat", total_length=60.0, spawn_x=1.0, finish_x=2.4)
    rng = np.random.default_rng(8)
    bodies = [Morphology([[3, 3, 3]]), Morphology([[1, 1, 3]])]
    bodies += [random_morphology(1, 3, rng) for _ in range(6)]
    pairs = [(m, FIXED) for m in bodies]
    alone = [run_episode(m, c, terrain) for m, c in pairs]
    assert any(r.finished for r in alone) and not all(r.finished for r in alone)
    assert run_episodes(pairs, terrain) == alone


def test_diverging_world_leaves_the_others_untouched(monkeypatch, rng, flat):
    pairs = [(random_morphology(5, 5, rng), init_controller("modular", rng)) for _ in range(5)]
    alone = [run_episode(m, c, flat) for m, c in pairs]
    doomed = pairs[2][0]
    original = voxevo.tasks.build_world

    def exploding(morphology, terrain):
        world = original(morphology, terrain)
        if morphology is doomed:
            world.vel[:] = 1e9
        return world

    monkeypatch.setattr(voxevo.tasks, "build_world", exploding)
    batch = run_episodes(pairs, flat)
    assert batch[2].diverged and batch[2].steps_used == T_MAX and batch[2].delta_px == 0.0
    assert batch[:2] + batch[3:] == alone[:2] + alone[3:]


def test_batch_rejects_mixed_shapes_and_variants(rng, flat):
    body = random_morphology(4, 4, rng)
    with pytest.raises(ValueError):
        run_episodes([(body, FIXED), (random_morphology(5, 5, rng), FIXED)], flat)
    with pytest.raises(ValueError):
        run_episodes([(body, FIXED), (body, init_controller("modular", rng))], flat)
