import importlib.util
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import voxevo
import voxevo.control
import voxevo.sim_core
import voxevo.tasks
from voxevo.control import (
    OBS_DIM,
    PARAM_COUNT,
    ControllerGenome,
    compute_actions,
    controller_table,
    init_controller,
    unpack_params,
)
from voxevo.morphology import InvalidMorphologyError, Morphology, random_morphology
from voxevo.materials import ELASTIC, RIGID
from voxevo.sim_core import (
    GRAVITY,
    STEPS_PER_ACTION,
    _settled_strip,
    build_world,
    build_worlds,
    net_forces,
    set_actuation_targets,
    step,
)
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

from oracles import kernel_tables, read_table, reference_episodes, row_worlds
from test_golden import TRAJECTORY_SHA256, golden_pairs
from test_sim_core import POINTS_INTO, ROW_TABLES

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


@pytest.mark.parametrize("span", [(8.5, 51.7), (8.0, 51.5)], ids=["both-ends", "one-end"])
def test_bridge_span_ends_on_whole_voxels(span):
    # the strip is built one voxel per unit and pinned at its ends: a span
    # of 8.5-51.7 would be built and pinned from 8 to 51, but contacted
    # from 8.5 to 51.7
    with pytest.raises(ValueError, match="whole voxels"):
        replace(make_bridge_terrain(), span_start=span[0], span_end=span[1])


@pytest.mark.parametrize("material", [0, 5, 7])
def test_bridge_material_is_a_voxel_material(material):
    # the kernel reads the strip's stiffness by material code: code 7 reads
    # past its table, and empty code 0 builds no strip at all
    with pytest.raises(ValueError, match="bridge_material"):
        replace(make_bridge_terrain(), bridge_material=material)
    assert replace(make_bridge_terrain(), bridge_material=RIGID).bridge_material == RIGID


def test_terrain_by_name():
    assert terrain_by_name("walker").kind == "flat"
    assert terrain_by_name("bridgewalker").kind == "bridge"
    with pytest.raises(ValueError):
        terrain_by_name("carrier")


def test_flat_has_no_pinned_masses(flat, rng):
    w = build_world(random_morphology(5, 5, rng), flat)
    assert not read_table(w, "pinned").any()


# --- episodes ---------------------------------------------------------------


def test_zero_network_barely_moves(flat):
    m = Morphology([[3, 3, 1], [2, 4, 4], [3, 1, 2]])
    zero = ControllerGenome("modular", np.zeros(2401))
    result = run_episode(m, zero, flat)
    assert result.steps_used == 500
    assert not result.finished
    assert abs(result.delta_px) < 0.5


def test_controller_queried_every_fifth_step(rng, flat):
    # the kernel queries the controller table inside ``advance``: its
    # episode is bit for bit a Python loop that computes and sets the
    # commands on every fifth step, and not one that does so a step late
    m = random_morphology(5, 5, rng)
    controllers = [init_controller("modular", rng)]
    kernel = build_world(m, flat)
    controller_table(controllers, kernel)
    voxevo.sim_core.advance(kernel, T_MAX, control=True)
    for offset, same in ((0, True), (1, False)):
        loop = build_world(m, flat)
        for t in range(T_MAX):
            if t % STEPS_PER_ACTION == offset:
                set_actuation_targets(loop, compute_actions(controllers, loop, t // STEPS_PER_ACTION))
            step(loop)
        assert (loop.pos.tobytes() == kernel.pos.tobytes()) == same
        assert (loop.vel.tobytes() == kernel.vel.tobytes()) == same


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
    top = read_table(w, "bridge_top")
    assert w.pos[top, 1].min() < 0.0  # settled equilibrium sags below the pads
    mid = top[len(top) // 2]
    for _ in range(500):
        step(w)
    assert w.pos[mid, 1] < 0.0


def test_bridge_strip_starts_at_rest():
    # springs and gravity cancel on every free strip mass: the strip solve
    # stops only below 1e-9 (STRIP_TOLERANCE), about 8e-12 measured here
    w = build_world(Morphology([[3]]), make_bridge_terrain())
    force = net_forces(w)  # the robot stands on the pad: no strip contact
    force[:, 1] -= GRAVITY * w.mass
    free = ~read_table(w, "is_robot") & ~read_table(w, "pinned")
    assert np.count_nonzero(free) == 2 * (52 - 8 + 1) - 4
    assert np.abs(force[free] / w.mass[free, None]).max() < 1e-9


def test_bridge_strip_is_kernel_independent():
    # the strip solve calls no BLAS, so another OpenBLAS kernel, in a fresh
    # process, settles the strip to the same bytes
    script = f"import sys; from voxevo.sim_core import _settled_strip as e; print(e(8, 52, {ELASTIC})['pos'].tobytes().hex())"
    src = str(Path(voxevo.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert bytes.fromhex(done.stdout.strip()) == _settled_strip(8, 52, ELASTIC)["pos"].tobytes()


def test_bridge_anchors_never_move():
    w = build_world(Morphology([[3]]), make_bridge_terrain())
    pinned = read_table(w, "pinned")
    anchors = w.pos[pinned].copy()
    for _ in range(500):
        step(w)
    assert np.array_equal(w.pos[pinned], anchors)
    assert anchors[:, 0].min() == 8.0 and anchors[:, 0].max() == 52.0


def test_bridge_deforms_more_under_load():
    base = make_bridge_terrain()
    w_empty = build_world(Morphology([[3]]), base)
    empty_min = w_empty.pos[read_table(w_empty, "bridge_top"), 1].min()

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
    top = read_table(w, "bridge_top")
    # lower the robot onto the settled strip before releasing it
    over_robot = (w.pos[top, 0] > 26) & (w.pos[top, 0] < 34)
    w.pos[read_table(w, "is_robot"), 1] += w.pos[top, 1][over_robot].max() + 0.05
    for _ in range(2000):
        step(w)
    loaded_min = w.pos[top, 1].min()
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


def recording_batches(monkeypatch):
    """The (shape, variant) set of each ``run_episodes`` batch the evaluator makes."""
    batches = []
    original = voxevo.tasks.run_episodes

    def recording(batch, terrain):
        batch = list(batch)
        batches.append(sorted({(m.cells.shape, c.variant) for m, c in batch}))
        return original(batch, terrain)

    monkeypatch.setattr(voxevo.tasks, "run_episodes", recording)
    return batches


def test_evaluator_batches_mixed_body_shapes(monkeypatch, rng, flat):
    # one run_episodes batch per call, whatever the body shapes; each score
    # equals the pair's own episode
    batches = recording_batches(monkeypatch)
    for variant in ("fixed", "modular"):
        pairs = [(random_morphology(h, h, rng), init_controller(variant, rng)) for h in (4, 5, 4, 5, 3)]
        pairs.append(pairs[0])
        alone = [run_episodes([pair], flat)[0].fitness for pair in pairs]
        batches.clear()
        ev = EpisodeEvaluator(flat)
        assert ev.fitness_many(pairs) == alone
        assert batches == [[((3, 3), variant), ((4, 4), variant), ((5, 5), variant)]]
        assert (ev.episodes_run, ev.cache_hits, ev.failures) == (5, 1, 0)


def test_evaluator_refuses_mixed_variants_before_any_episode(monkeypatch, rng, flat):
    # a call holds one controller variant; one that mixes them is refused
    # whole, before a batch runs or a count moves, and the cache stays empty
    body = random_morphology(4, 4, rng)
    pairs = [(body, FIXED), (Morphology([[1, 2]]), FIXED), (body, init_controller("modular", rng))]
    batches = recording_batches(monkeypatch)
    ev = EpisodeEvaluator(flat)
    with pytest.raises(ValueError, match="one controller variant"):
        ev.fitness_many(pairs)
    assert batches == []
    assert (ev.episodes_run, ev.cache_hits, ev.failures, ev._cache) == (0, 0, 0, {})
    assert ev.fitness_many([]) == []


def test_evaluator_counts_a_failed_batch(monkeypatch, rng, flat):
    # an unexpected exception fails every episode of its batch, of two body
    # shapes here, and leaves the evaluator to score the next call
    fixed = [(random_morphology(h, h, rng), FIXED) for h in (3, 4, 3)]
    modular = [(random_morphology(4, 4, rng), init_controller("modular", rng)) for _ in range(2)]
    original = voxevo.tasks.controller_table

    def failing(genomes, state):
        if genomes[0].variant == "fixed":
            raise RuntimeError("boom")
        return original(genomes, state)

    monkeypatch.setattr(voxevo.tasks, "controller_table", failing)
    ev = EpisodeEvaluator(flat)
    assert ev.fitness_many(fixed) == [compute_fitness(0.0, False, T_MAX)] * len(fixed)
    assert ev.failures == len(fixed)
    fits = ev.fitness_many(modular)
    assert ev.failures == len(fixed)
    monkeypatch.undo()
    assert fits == [run_episode(m, c, flat).fitness for m, c in modular]


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


def spoil(monkeypatch, doomed, velocity, axis=slice(None)):
    """Make every union built for a batch start the worlds of the body
    ``doomed``, the object, with ``velocity`` along ``axis``, in whichever
    of the batch's unions holds them."""
    original = voxevo.tasks.build_worlds

    def spoiled(morphologies, terrain):
        union = original(morphologies, terrain)
        worlds = [w for w, m in enumerate(morphologies) if m is doomed]
        union.vel[np.isin(row_worlds(union), worlds), axis] = velocity
        return union

    monkeypatch.setattr(voxevo.tasks, "build_worlds", spoiled)


def test_diverging_world_leaves_the_others_untouched(monkeypatch, rng, flat):
    pairs = [(random_morphology(5, 5, rng), init_controller("modular", rng)) for _ in range(5)]
    alone = [run_episode(m, c, flat) for m, c in pairs]
    spoil(monkeypatch, pairs[2][0], 1e9)
    batch = run_episodes(pairs, flat)
    assert batch[2].diverged and batch[2].steps_used == T_MAX and batch[2].delta_px == 0.0
    assert batch[:2] + batch[3:] == alone[:2] + alone[3:]


def test_evaluator_counts_divergences(monkeypatch, rng, flat):
    # a flung world diverges: it is counted, keeps the displacement of its
    # last valid step, and is no failure
    pairs = [(random_morphology(5, 5, rng), init_controller("modular", rng)) for _ in range(3)]
    spoil(monkeypatch, pairs[1][0], -2e6, 0)
    ev = EpisodeEvaluator(flat)
    fits = ev.fitness_many(pairs)
    assert ev.divergences == 1 and ev.failures == 0
    assert fits[1] < -9e5


def _bits(results):
    """Each result's fields, its floats as exact hex strings."""
    return [(r.delta_px.hex(), r.finished, r.steps_used, r.fitness.hex(), r.diverged) for r in results]


@pytest.mark.parametrize("environment,variant", [("walker", "fixed"), ("bridgewalker", "modular")])
def test_episode_loop_matches_the_per_step_reference(environment, variant):
    # measuring and testing the worlds only on steps where one can end
    # gives every field of every result bit for bit
    terrain = terrain_by_name(environment, (5, 5))
    rng = np.random.default_rng([5, 23])
    pairs = [(random_morphology(5, 5, rng), init_controller(variant, rng)) for _ in range(4)]
    assert _bits(run_episodes(pairs, terrain)) == _bits(reference_episodes(pairs, terrain))


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_episode_loop_matches_the_reference_on_every_golden_setting(setting):
    # the compiled loop (stretches of steps, the kernel's targets, fixed
    # alternation and observation fill) against numpy alone, every field of
    # every result bit for bit, each setting's world between two neighbours
    pairs, terrain = golden_pairs(*setting, neighbours=1)
    assert _bits(run_episodes(pairs, terrain)) == _bits(reference_episodes(pairs, terrain))


def test_episode_loop_matches_the_reference_on_early_finishers():
    # the finish line starts beyond a voxel ahead of every body, so the loop
    # first skips its bookkeeping, then meets worlds that finish mid-episode
    terrain = TerrainSpec(kind="flat", total_length=60.0, spawn_x=1.0, finish_x=4.05)
    rng = np.random.default_rng(2)
    pairs = [(random_morphology(2, 2, rng), FIXED) for _ in range(8)]
    batch = run_episodes(pairs, terrain)
    assert 0 < sum(r.finished for r in batch) < len(batch)
    assert all(r.steps_used > 100 for r in batch)
    assert _bits(batch) == _bits(reference_episodes(pairs, terrain))


def test_episode_loop_matches_the_reference_on_a_mid_episode_divergence(monkeypatch, rng, flat):
    # a world flung left at 2e6 per second passes the divergence limit
    # after about 100 steps: it scores from its centre of mass one step
    # before, and the other worlds carry on untouched
    pairs = [(random_morphology(5, 5, rng), init_controller("modular", rng)) for _ in range(5)]
    spoil(monkeypatch, pairs[2][0], -2e6, 0)
    batch = run_episodes(pairs, flat)
    assert batch[2].diverged and batch[2].delta_px < -9e5
    assert _bits(batch) == _bits(reference_episodes(pairs, flat))


@pytest.mark.parametrize("variant", ["fixed", "modular"])
def test_episode_loop_matches_the_reference_on_a_nan_velocity(monkeypatch, rng, flat, variant):
    # a world whose velocities are NaN diverges on the first step and is
    # parked; its NaN commands leave nothing behind, and the others carry on
    pairs = [(random_morphology(5, 5, rng), init_controller(variant, rng)) for _ in range(3)]
    alone = [run_episode(m, c, flat) for m, c in pairs]
    spoil(monkeypatch, pairs[1][0], np.nan)
    batch = run_episodes(pairs, flat)
    assert batch[1].diverged and batch[1].delta_px == 0.0 and batch[1].steps_used == T_MAX
    assert [batch[0], batch[2]] == [alone[0], alone[2]]
    assert _bits(batch) == _bits(reference_episodes(pairs, flat))


def test_a_kernel_that_cannot_be_built_is_raised_not_scored(monkeypatch, tmp_path, rng, flat):
    # a missing compiler fails every batch alike: the evaluator raises the
    # build error instead of scoring each episode as a failure
    monkeypatch.setattr(voxevo.sim_core, "_COMPILER", "no-such-compiler-here")
    monkeypatch.setattr(voxevo.sim_core, "_KERNEL_DIR", tmp_path / "cache")
    monkeypatch.setattr(voxevo.sim_core, "_kernel", voxevo.sim_core._load_kernel)  # no cached library
    ev = EpisodeEvaluator(flat)
    with pytest.raises(voxevo.sim_core.KernelBuildError, match="no-such-compiler-here"):
        ev.fitness_many([(random_morphology(4, 4, rng), FIXED)])
    assert ev.failures == 0


def test_evolve_without_a_compiler_exits_3_and_names_it(tmp_path):
    # in a fresh process, so that no kernel is loaded yet: the run stops
    # with the compiler named, and writes no generations.csv
    out = tmp_path / "run"
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from voxevo import cli, sim_core\n"
        "sim_core._COMPILER = 'no-such-cc'\n"
        f"sim_core._KERNEL_DIR = Path({str(tmp_path / 'cache')!r})\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["evolve", "--env", "walker", "--size", "5x5", "--controller", "fixed", "--gens", "2", "--seed", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(voxevo.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(out)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 3, done.stderr
    assert "KernelBuildError" in done.stderr and "no-such-cc" in done.stderr
    assert not (out / "generations.csv").exists()


def test_timed_layers_are_reached_once_per_step_or_control_call(monkeypatch):
    # perfbench's tracer times these layers by wrapping the module
    # attributes the library looks them up through. An episode runs in the
    # kernel, one ``advance`` call per stretch, with the controller queried
    # inside it for both variants: so a batch never reaches ``step``,
    # ``spring_forces``, ``contact_forces``, ``compute_actions``,
    # ``forward_batch`` or ``set_actuation_targets``. A stretch ends only
    # where a world can have ended, so the ``advance`` calls are bounded by
    # the world ends.
    calls = {}
    build_world(Morphology([[3]]), make_bridge_terrain((4, 4)))  # the strip's solve is cached from here on

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [
        (voxevo.sim_core, "step"),
        (voxevo.sim_core, "spring_forces"),
        (voxevo.sim_core, "contact_forces"),
        (voxevo.sim_core, "advance"),
        (voxevo.tasks, "set_actuation_targets"),
        (voxevo.tasks, "compute_actions"),
        (voxevo.control, "forward_batch"),
        (voxevo.control, "observation_matrix"),
    ]:
        count(owner, name)
    for environment in ("walker", "bridgewalker"):
        for variant in ("modular", "fixed"):
            calls.clear()
            rng = np.random.default_rng(3)
            pairs = [(random_morphology(4, 4, rng), init_controller(variant, rng)) for _ in range(3)]
            results = run_episodes(pairs, terrain_by_name(environment, (4, 4)))
            assert not any(r.finished or r.diverged for r in results)
            assert set(calls) == {"advance"}
            assert 1 <= calls["advance"] <= len(pairs)


def fixed_gait_genome() -> ControllerGenome:
    """The fixed alternation as a modular genome: one hidden unit reads the
    parity, and 60 * tanh(10 - 20 * parity), about +-60, saturates the
    logistic so that every command is exactly 1.6 or 0.6."""
    params = np.zeros(PARAM_COUNT)
    w1, b1, w2, _ = unpack_params(params)  # views: writing them writes params
    w1[0, OBS_DIM - 1] = -20.0
    b1[0] = 10.0
    w2[0] = 60.0
    return ControllerGenome("modular", params)


@pytest.mark.parametrize("setting", [s for s in TRAJECTORY_SHA256 if s[2] == "fixed"], ids=lambda s: f"{s[0]}-{s[1]}")
def test_the_fixed_gait_lies_inside_the_modular_space(setting):
    # a body's fixed fitness is a lower bound on its modular potential: the
    # one-unit genome scores every golden body's fixed fitness bit for bit
    pairs, terrain = golden_pairs(*setting, neighbours=1)
    genome = fixed_gait_genome()
    fixed = run_episodes(pairs, terrain)
    modular = run_episodes([(m, genome) for m, _ in pairs], terrain)
    assert _bits(modular) == _bits(fixed)


def test_batch_builds_each_distinct_body_once(rng, flat):
    # a retraining batch shares one frozen body: every world of a repeated
    # body, the same object or an equal copy, gets identical rows (its index
    # tables offset by its starts), and every result is the body's solo run
    body, other = random_morphology(5, 5, rng), random_morphology(5, 5, rng)
    bodies = [body, Morphology(body.cells.copy()), other, body]
    pairs = [(m, init_controller("modular", rng)) for m in bodies]
    alone = [run_episode(m, c, flat) for m, c in pairs]
    assert run_episodes(pairs, flat) == alone
    union = build_worlds(bodies, flat)
    tables = kernel_tables(union)

    def world_rows(w):
        rows = []
        for kind, names in ROW_TABLES.items():
            for name in names:
                table = tables[name][union.starts[kind][w] : union.starts[kind][w + 1]]
                if name in POINTS_INTO:
                    table = table - union.starts[POINTS_INTO[name]][w]
                rows.append(table.tobytes())
        return rows

    assert world_rows(0) == world_rows(1) == world_rows(3) != world_rows(2)


@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_batch_makes_one_state(monkeypatch, rng, environment):
    # the batch's unions, one per chunk, are the only states made: no world
    # is built alone, and the chunk sizes sum to the batch
    terrain = terrain_by_name(environment, (4, 4))
    build_world(Morphology([[3]]), terrain)  # the strip's solve is cached from here on
    body = random_morphology(4, 4, rng)
    pairs = [(m, init_controller("fixed", rng)) for m in (body, random_morphology(4, 4, rng), body)]
    made = []
    original = voxevo.sim_core.WorldState.__post_init__

    def counting(state):
        made.append(state.num_worlds)
        original(state)

    monkeypatch.setattr(voxevo.sim_core.WorldState, "__post_init__", counting)
    run_episodes(pairs, terrain)
    chunks = min(len(pairs), voxevo.tasks._cpus())
    assert made == [len(pairs[i::chunks]) for i in range(chunks)]
    assert sum(made) == 3


def test_every_traced_attribute_exists():
    # perfbench's tracer wraps each of these by name; one that is missing
    # makes a traced run (``--trace 1``) fail with AttributeError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for owner, attr, name in tracer.WRAPPED if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_empty_batch_runs_no_episode(flat):
    assert run_episodes([], flat) == []


def test_batch_rejects_mixed_shapes_and_variants(rng, flat):
    # a batch holds one controller variant; its body shapes may differ
    # (test_a_batch_may_mix_body_shapes)
    body = random_morphology(4, 4, rng)
    with pytest.raises(ValueError):
        run_episodes([(body, FIXED), (body, init_controller("modular", rng))], flat)


@pytest.mark.parametrize("variant", ["fixed", "modular"])
@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_a_batch_may_mix_body_shapes(rng, environment, variant):
    # seven shapes, from a 1x4 row to a full 7x7 grid, in one batch: every
    # world's result is its episode alone, bit for bit
    terrain = terrain_by_name(environment, (7, 7))
    shapes = [(1, 4), (2, 5), (3, 3), (4, 6), (5, 5), (6, 2), (7, 7)]
    pairs = [(random_morphology(h, w, rng), init_controller(variant, rng)) for h, w in shapes]
    assert _bits(run_episodes(pairs, terrain)) == _bits([run_episode(m, c, terrain) for m, c in pairs])


# --- one union per CPU ---------------------------------------------------------


@pytest.mark.parametrize("variant", ["fixed", "modular"])
@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_results_do_not_depend_on_the_split(monkeypatch, affinity, environment, variant):
    # a batch of seven shapes, a flung world and an early finisher gives
    # every field of every result bit for bit, whether it runs as one union
    # or as 2, 3 or 7 unions at once, with threads switched every microsecond
    terrain = replace(terrain_by_name(environment, (4, 4)), finish_x=4.05)
    rng = np.random.default_rng([4, 26])
    shapes = [(1, 4), (2, 3), (3, 3), (4, 2), (2, 2), (3, 4), (4, 4)]
    pairs = [(m, init_controller(variant, rng)) for m in [random_morphology(h, w, rng) for h, w in shapes]]
    if variant == "modular":
        pairs[4] = (pairs[4][0], fixed_gait_genome())  # it finishes, as under the fixed controller
    spoil(monkeypatch, pairs[1][0], -2e6, 0)
    bits = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 17):
            affinity(cpus)
            bits[cpus] = _bits(run_episodes(pairs, terrain))
    finally:
        sys.setswitchinterval(interval)
    assert bits[2] == bits[3] == bits[17] == bits[1] == _bits(reference_episodes(pairs, terrain))
    assert bits[1][4][1:3] == (True, 223) and not all(finished for _, finished, *_ in bits[1])
    assert [diverged for *_, diverged in bits[1]] == [w == 1 for w in range(len(pairs))]


@pytest.mark.parametrize("fault", ["not-simulable", "two-variants", "no-compiler"])
def test_a_batch_that_cannot_be_built_raises_before_any_thread_starts(
    monkeypatch, affinity, tmp_path, rng, flat, fault
):
    # the whole batch is checked, and every union built, on the calling
    # thread: a bad pair in the last chunk, or a kernel that cannot be
    # built, raises there, and no thread starts
    affinity(4)
    pairs = [(random_morphology(4, 4, rng), FIXED) for _ in range(4)]
    if fault == "not-simulable":
        pairs[3] = (Morphology([[3, 0, 3]]), FIXED)
    elif fault == "two-variants":
        pairs[3] = (pairs[3][0], init_controller("modular", rng))
    else:
        monkeypatch.setattr(voxevo.sim_core, "_COMPILER", "no-such-compiler-here")
        monkeypatch.setattr(voxevo.sim_core, "_KERNEL_DIR", tmp_path / "cache")
        monkeypatch.setattr(voxevo.sim_core, "_kernel", voxevo.sim_core._load_kernel)  # no cached library
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    before = threading.active_count()
    with pytest.raises((InvalidMorphologyError, ValueError, voxevo.sim_core.KernelBuildError)):
        run_episodes(pairs, flat)
    assert started == [] and threading.active_count() == before


def test_a_chunk_that_raises_fails_the_batch_once(monkeypatch, affinity, rng, flat):
    # one union's kernel call raises on a worker thread: the other chunks
    # run to their end, no worker outlives the call, the error is raised
    # once, on the calling thread, and the evaluator fails the whole batch
    affinity(3)
    pairs = [(random_morphology(4, 4, rng), FIXED) for _ in range(5)]  # chunks: worlds 0 3, 1 4, and 2
    doomed = pairs[2][0]
    original = voxevo.sim_core.advance
    raised, ended = [], []

    def failing(state, *args, **kwargs):
        if any(m is doomed for m in state.morphologies):
            raised.append(threading.current_thread())
            raise RuntimeError("boom")
        blown = original(state, *args, **kwargs)
        if state.sim_time == T_MAX:
            ended.append(state.num_worlds)
        return blown

    monkeypatch.setattr(voxevo.sim_core, "advance", failing)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="boom"):
        run_episodes(pairs, flat)
    assert threading.active_count() == before
    assert len(raised) == 1 and raised[0] is not threading.current_thread()
    assert sorted(ended) == [2, 2] and unhandled == []
    ev = EpisodeEvaluator(flat)
    assert ev.fitness_many(pairs) == [compute_fitness(0.0, False, T_MAX)] * len(pairs)
    assert (ev.failures, ev.episodes_run) == (len(pairs), len(pairs))
    assert threading.active_count() == before


def test_the_cpus_are_read_at_every_batch(monkeypatch, affinity, rng, flat):
    # a process that narrows its affinity between batches splits the next
    # batch by its new CPUs: on two, one thread starts beside the calling
    # one; on one, none does, and the results are the same
    pairs = [(random_morphology(4, 4, rng), FIXED) for _ in range(8)]
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread))[1])
    affinity(2)
    wide = run_episodes(pairs, flat)
    assert len(started) == 1
    started.clear()
    affinity(1)
    assert run_episodes(pairs, flat) == wide and started == []
