import hashlib
import io
import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from voxevo import evolution
from voxevo.control import PARAM_COUNT, PARAMS_KEY, ControllerGenome, init_controller
from voxevo.evolution import (
    ConfigError,
    Individual,
    Population,
    RunConfig,
    advance_generation,
    dominates,
    evolve,
    individual_rng,
    load_checkpoint,
    make_initial_population,
    make_offspring,
    truncation_select,
)
from voxevo.morphology import Morphology, random_morphology

from oracles import pareto_layers, reference_truncation_select


class HashEvaluator:
    """Deterministic fake fitness: no physics, instant, genome-sensitive."""

    def __init__(self):
        self.calls = 0

    def fitness_many(self, pairs):
        out = []
        for morphology, controller in pairs:
            self.calls += 1
            digest = hashlib.blake2b(digest_size=8)
            digest.update(morphology.cells.tobytes())
            digest.update(controller.params.tobytes())
            out.append(int.from_bytes(digest.digest(), "big") / 2**64 * 10.0)
        return out


def make_individual(ind_id, fitness, age, rng=None):
    rng = rng or np.random.default_rng(ind_id)
    ind = Individual(
        id=ind_id,
        morphology=random_morphology(3, 3, rng),
        controller=ControllerGenome("fixed", np.zeros(0)),
        age=age,
    )
    ind.fitness = fitness
    return ind


# --- dominance ---------------------------------------------------------------


def test_dominates_examples():
    assert dominates((6.0, 3), (5.0, 3))
    assert not dominates((6.0, 3), (4.0, 2))  # older
    assert not dominates((5.0, 2), (5.0, 2))  # no strict improvement
    assert dominates((5.0, 1), (5.0, 2))
    assert not dominates((4.9, 1), (5.0, 0))


# --- brute-force selection oracle ---------------------------------------------


def brute_force_select(members, keep):
    """Independent O(n^2) reimplementation of layered truncation."""
    remaining = list(members)
    layers = []
    while remaining:
        front = []
        for m in remaining:
            dominated = False
            for other in remaining:
                if other is m:
                    continue
                better_or_equal = other.fitness >= m.fitness and other.age <= m.age
                strictly = other.fitness > m.fitness or other.age < m.age
                if better_or_equal and strictly:
                    dominated = True
                    break
            if not dominated:
                front.append(m)
        layers.append(front)
        remaining = [m for m in remaining if m not in front]
    chosen = []
    for layer in layers:
        ordered = sorted(layer, key=lambda i: (-i.fitness, i.age, i.id))
        for ind in ordered:
            if len(chosen) < keep:
                chosen.append(ind)
    return sorted(chosen, key=lambda i: (-i.fitness, i.age, i.id))


def test_selection_matches_brute_force_on_random_pools():
    rng = np.random.default_rng(0)
    body = random_morphology(2, 2, np.random.default_rng(1))
    for trial in range(200):
        pool = []
        for i in range(33):
            ind = Individual(id=i, morphology=body, controller=ControllerGenome("fixed", np.zeros(0)))
            # coarse grids force plenty of ties in both objectives
            ind.fitness = float(rng.integers(0, 8))
            ind.age = int(rng.integers(0, 6))
            pool.append(ind)
        got = truncation_select(pool, 16)
        expected = brute_force_select(pool, 16)
        assert [i.id for i in got] == [i.id for i in expected], f"trial {trial}"


def test_selection_keeps_strict_dominators():
    pool = [make_individual(i, fitness=10.0 + i, age=0) for i in range(16)]
    pool += [make_individual(100 + i, fitness=1.0, age=5) for i in range(17)]
    chosen = truncation_select(pool, 16)
    assert {i.id for i in chosen} == set(range(16))


def test_nondominated_injectee_survives_small_front():
    # members form one dominance chain, so the first layer is tiny; the
    # age-0 injectee is non-dominated and must be kept
    pool = [make_individual(i, fitness=5.0 + i, age=32 - i) for i in range(32)]
    injectee = make_individual(99, fitness=0.01, age=0)
    chosen = truncation_select(pool + [injectee], 16)
    assert any(i.id == 99 for i in chosen)
    # oversized first front: truncation by fitness may legitimately cut it
    flat_pool = [make_individual(i, fitness=5.0 + i, age=i + 1) for i in range(32)]
    chosen = truncation_select(flat_pool + [make_individual(99, fitness=0.01, age=0)], 16)
    assert len(chosen) == 16


def test_no_kept_individual_dominated_by_discarded():
    rng = np.random.default_rng(3)
    body = random_morphology(2, 2, np.random.default_rng(1))
    for _ in range(50):
        pool = []
        for i in range(33):
            ind = Individual(id=i, morphology=body, controller=ControllerGenome("fixed", np.zeros(0)))
            ind.fitness = float(rng.normal())
            ind.age = int(rng.integers(0, 10))
            pool.append(ind)
        kept = truncation_select(pool, 16)
        kept_ids = {i.id for i in kept}
        discarded = [i for i in pool if i.id not in kept_ids]
        for k in kept:
            for d in discarded:
                assert not dominates((d.fitness, d.age), (k.fitness, k.age))


def test_pareto_layers_partition_pool():
    rng = np.random.default_rng(4)
    body = random_morphology(2, 2, np.random.default_rng(1))
    pool = []
    for i in range(25):
        ind = Individual(id=i, morphology=body, controller=ControllerGenome("fixed", np.zeros(0)))
        ind.fitness = float(rng.integers(0, 5))
        ind.age = int(rng.integers(0, 5))
        pool.append(ind)
    layers = pareto_layers(pool)
    assert sum(len(l) for l in layers) == len(pool)
    # layer k+1 members are each dominated by someone in layer k or earlier
    seen = []
    for layer in layers:
        for m in layer:
            if seen:
                assert any(dominates((s.fitness, s.age), (m.fitness, m.age)) for s in seen)
        seen.extend(layer)


@pytest.mark.parametrize("keep", [1, 16, 40])
def test_truncation_select_is_the_brute_force_reference(keep):
    # pools of 33 with fitnesses and ages drawn from a few values each, so
    # that ties in either, and whole duplicate points, are common; the
    # survivors and their order must be the brute-force peel's
    rng = np.random.default_rng(12)
    body = random_morphology(2, 2, np.random.default_rng(1))
    for _ in range(300):
        pool = []
        for i in rng.permutation(33).tolist():
            ind = Individual(id=i, morphology=body, controller=ControllerGenome("fixed", np.zeros(0)))
            ind.fitness = float(rng.choice([-1.5, 0.0, 2.25, 2.5, 7.0]))
            ind.age = int(rng.integers(0, 4))
            pool.append(ind)
        chosen = truncation_select(pool, keep)
        assert [i.id for i in chosen] == [i.id for i in reference_truncation_select(pool, keep)]
        assert len(chosen) == min(keep, len(pool))


# --- offspring -----------------------------------------------------------------


def test_fixed_parent_controller_branch_is_copy(rng):
    parent = make_individual(0, fitness=1.0, age=4)
    child = make_offspring(parent, rng, freeze_body=True, child_id=1)
    assert child.controller == parent.controller
    assert child.morphology == parent.morphology
    assert child.age == 4
    assert child.parent_id == 0
    assert child.mutated_component == "brain"


def test_freeze_body_never_mutates_morphology(rng):
    parent = make_individual(0, fitness=1.0, age=2)
    parent.controller = init_controller("modular", rng)
    for i in range(50):
        child = make_offspring(parent, rng, freeze_body=True, child_id=i + 1)
        assert child.morphology == parent.morphology
        assert child.mutated_component == "brain"


def test_offspring_requires_evaluated_parent(rng):
    parent = Individual(
        id=0,
        morphology=random_morphology(3, 3, rng),
        controller=ControllerGenome("fixed", np.zeros(0)),
    )
    with pytest.raises(ValueError):
        make_offspring(parent, rng, child_id=1)


def test_branch_frequency_is_half():
    rng = np.random.default_rng(11)
    parent = make_individual(0, fitness=1.0, age=0, rng=np.random.default_rng(2))
    n = 100_000
    bodies = 0
    for i in range(n):
        child = make_offspring(parent, rng, child_id=i)
        bodies += child.mutated_component == "body"
    assert abs(bodies / n - 0.5) <= 0.005


def test_fitness_set_once():
    ind = make_individual(0, fitness=1.0, age=0)
    with pytest.raises(RuntimeError):
        ind.set_fitness(2.0)


# --- generations -----------------------------------------------------------------


def small_config(**kwargs):
    defaults = dict(
        environment="walker",
        height=3,
        width=3,
        controller="fixed",
        generations=5,
        population_size=8,
        seed=3,
        checkpoint_interval=2,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_population_size_invariant_and_ages():
    config = small_config()
    evaluator = HashEvaluator()
    pop = make_initial_population(config)
    assert all(m.age == 0 for m in pop.members)
    for m, fit in zip(pop.members, evaluator.fitness_many([(m.morphology, m.controller) for m in pop.members])):
        m.set_fitness(fit)
    ages_before = {m.id: m.age for m in pop.members}
    nxt = advance_generation(pop, evaluator, config)
    assert len(nxt.members) == config.population_size
    assert nxt.generation == 1
    # survivors aged by one, children inherit the pre-increment age
    for m in nxt.members:
        if m.id in ages_before:
            assert m.age == ages_before[m.id] + 1
        elif m.parent_id is not None:
            assert m.age == ages_before[m.parent_id]
        else:
            assert m.age == 0  # injectee


def test_generation_zero_result_is_initial_population():
    config = small_config(generations=0)
    res = evolve(config, HashEvaluator())
    assert len(res.stats) == 1
    assert res.stats[0].generation == 0
    assert res.champion.fitness == max(m.fitness for m in res.final_population.members)


def test_best_ever_curve_monotone():
    res = evolve(small_config(generations=30), HashEvaluator())
    curve = np.maximum.accumulate([s.best_fitness for s in res.stats])
    assert np.all(np.diff(curve) >= 0)
    assert res.champion.fitness == pytest.approx(curve[-1])


def test_evolve_deterministic_given_seed():
    r1 = evolve(small_config(generations=10), HashEvaluator())
    r2 = evolve(small_config(generations=10), HashEvaluator())
    assert [s.best_fitness for s in r1.stats] == [s.best_fitness for s in r2.stats]
    assert r1.champion.morphology == r2.champion.morphology
    assert r1.champion.controller == r2.champion.controller


def test_different_seeds_differ():
    r1 = evolve(small_config(generations=10), HashEvaluator())
    r2 = evolve(small_config(generations=10, seed=4), HashEvaluator())
    assert [s.best_fitness for s in r1.stats] != [s.best_fitness for s in r2.stats]


def test_checkpoint_resume_identical(tmp_path):
    ck = tmp_path / "checkpoint.json"
    config = small_config(generations=10)
    full = evolve(config, HashEvaluator())

    class Interrupt(Exception):
        pass

    def bail_at_4(pop, champion):
        if pop.generation == 4:
            raise Interrupt

    with pytest.raises(Interrupt):
        evolve(config, HashEvaluator(), checkpoint_path=ck, progress=bail_at_4)
    # older checkpoints also stored the seed; a run reads only the config's,
    # which the fingerprint pins
    payload = json.loads(ck.read_text())
    payload["rng_seed"] = config.seed + 1
    ck.write_text(json.dumps(payload))
    resumed = evolve(config, HashEvaluator(), checkpoint_path=ck, resume=True)
    assert [s.best_fitness for s in resumed.stats] == [s.best_fitness for s in full.stats]
    assert resumed.champion.morphology == full.champion.morphology
    assert resumed.champion.controller == full.champion.controller


def assert_same_individual(loaded, own):
    assert (loaded.id, loaded.age, loaded.fitness, loaded.parent_id) == (own.id, own.age, own.fitness, own.parent_id)
    assert loaded.mutated_component == own.mutated_component
    assert loaded.morphology == own.morphology
    assert loaded.controller.variant == own.controller.variant
    assert loaded.controller.params.dtype == own.controller.params.dtype
    assert loaded.controller.params.tobytes() == own.controller.params.tobytes()


@pytest.mark.parametrize("controller", ["fixed", "modular"])
def test_checkpoint_round_trip(tmp_path, controller):
    ck = tmp_path / "checkpoint.json"
    result = evolve(small_config(controller=controller, generations=4), HashEvaluator(), checkpoint_path=ck)
    saved = load_checkpoint(ck)
    assert saved["generation"] == 4
    assert len(saved["members"]) == 8
    assert saved["config"].generations == 4
    for loaded, own in zip(saved["members"], result.final_population.members, strict=True):
        assert_same_individual(loaded, own)
    assert_same_individual(saved["champion"], result.champion)
    assert [g for g, _ in saved["snapshots"]] == [g for g, _ in result.snapshots] == [2, 4]
    for (_, loaded), (_, own) in zip(saved["snapshots"], result.snapshots):
        assert_same_individual(loaded, own)
    assert saved["stats"] == result.stats


# the values decimal text is most likely to get wrong, bit for bit
SPECIALS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.30000000000000004, 1.0000000000000002, -2.2250738585072014e-308, 0.1 / 3]


def test_checkpoint_weights_are_exact(tmp_path):
    specials = SPECIALS
    rng = np.random.default_rng(5)
    members = []
    for k in range(3):
        params = rng.normal(0.0, 1.0, size=PARAM_COUNT)
        params[k : k + len(specials)] = specials
        ind = make_individual(k, fitness=float(k), age=k)
        ind.controller = ControllerGenome("modular", params)
        members.append(ind)
    pop = Population(members=members, generation=1, next_id=3)
    ck = tmp_path / "checkpoint.json"
    config = small_config(controller="modular")
    snapshot = evolution._snapshot_text(1, members[2])
    evolution.save_checkpoint(ck, pop, members[1], [], [snapshot], config, config.fingerprint())
    saved = load_checkpoint(ck)
    for loaded, own in zip(saved["members"], members, strict=True):
        assert_same_individual(loaded, own)
    assert_same_individual(saved["champion"], members[1])
    assert_same_individual(saved["snapshots"][0][1], members[2])


@pytest.mark.parametrize("variant", ["fixed", "modular"])
def test_float_lists_and_bytes_decode_to_the_same_bits(variant):
    # ControllerGenome.from_json is the one decoder: a record's base64 and
    # the float list of a record written before parameters were stored as
    # bytes give the same bits, in a checkpoint, a champion.json or a
    # desk-cache summary
    rng = np.random.default_rng(6)
    genome = init_controller(variant, rng)
    if variant == "modular":
        params = rng.normal(0.0, 1.0, size=PARAM_COUNT)
        params[: len(SPECIALS)] = SPECIALS
        genome = ControllerGenome("modular", params)
    as_bytes = genome.to_json()
    assert list(as_bytes) == ["variant", PARAMS_KEY]
    as_list = {"variant": variant, "params": genome.params.tolist()}
    ind = Individual(id=3, morphology=random_morphology(5, 5, rng), controller=genome, age=2, fitness=1.5)
    for record in (as_bytes, as_list):
        checkpoint = json.loads(json.dumps({**ind.to_json(), "controller": record}))
        champion = json.loads(json.dumps({"run_id": "abc-s0", "fitness": 1.5, "controller": record}))
        desk = json.loads(json.dumps({"champion_fitness": 1.5, "champion_controller": record}))
        for where, decoded in [
            ("checkpoint", Individual.from_json(checkpoint).controller),
            ("champion.json", ControllerGenome.from_json(champion["controller"])),
            ("desk cache", ControllerGenome.from_json(desk["champion_controller"])),
        ]:
            assert decoded.variant == variant, where
            assert decoded.params.dtype == np.float64, where
            assert decoded.params.tobytes() == genome.params.tobytes(), where


def to_float_lists(record):
    """A checkpoint record as written before parameters were stored as bytes."""
    controller = Individual.from_json(record).controller
    return {**record, "controller": {"variant": controller.variant, "params": controller.params.tolist()}}


def test_checkpoint_with_float_lists_still_resumes(tmp_path):
    # a run interrupted before parameters were stored as bytes keeps its resume
    ck = tmp_path / "checkpoint.json"
    config = small_config(controller="modular", generations=8)
    full = evolve(config, HashEvaluator())

    class Interrupt(Exception):
        pass

    def bail_at_4(pop, champion):
        if pop.generation == 4:
            raise Interrupt

    with pytest.raises(Interrupt):
        evolve(config, HashEvaluator(), checkpoint_path=ck, progress=bail_at_4)
    current = load_checkpoint(ck)
    payload = json.loads(ck.read_text())
    # float lists were last written under engine 5; once the engine moves on,
    # no such checkpoint can resume and their reader can go
    assert payload["engine_version"] == 5
    payload["members"] = [to_float_lists(m) for m in payload["members"]]
    payload["champion"] = to_float_lists(payload["champion"])
    payload["snapshots"] = [[g, to_float_lists(ind)] for g, ind in payload["snapshots"]]
    ck.write_text(json.dumps(payload))
    old = load_checkpoint(ck)
    for loaded, own in zip(old["members"] + [old["champion"]], current["members"] + [current["champion"]], strict=True):
        assert_same_individual(loaded, own)
    for (_, loaded), (_, own) in zip(old["snapshots"], current["snapshots"], strict=True):
        assert_same_individual(loaded, own)

    resumed = evolve(config, HashEvaluator(), checkpoint_path=ck, resume=True)
    assert resumed.stats == full.stats
    assert_same_individual(resumed.champion, full.champion)
    assert PARAMS_KEY in json.loads(ck.read_text())["snapshots"][0][1]["controller"]


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_each_row_is_encoded_once(monkeypatch, tmp_path, resume):
    # a save writes the rows encoded before it, and encodes afresh only the
    # population and the champion; a resumed run encodes the rows it loads once
    ck = tmp_path / "checkpoint.json"
    config = small_config(generations=10, checkpoint_interval=1)
    if resume:
        def bail_at_4(pop, champion):
            if pop.generation == 4:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evolve(config, HashEvaluator(), checkpoint_path=ck, progress=bail_at_4)
    encoded = []  # every object encoded, kept alive so that identity is a fair test

    def counting(original):
        def to_json(self):
            encoded.append(self)
            return original(self)

        return to_json

    monkeypatch.setattr(evolution.GenerationStats, "to_json", counting(evolution.GenerationStats.to_json))
    monkeypatch.setattr(Individual, "to_json", counting(Individual.to_json))
    result = evolve(config, HashEvaluator(), checkpoint_path=ck, resume=resume)
    assert len(result.stats) == 11 and len(result.snapshots) == 10
    assert [sum(x is row for x in encoded) for row in result.stats] == [1] * 11
    assert [sum(x is ind for x in encoded) for _, ind in result.snapshots] == [1] * 10


def test_checkpoint_text_is_json_dumps(tmp_path):
    # checkpoints go through the C encoder one piece at a time, each stats
    # row and snapshot encoded once, and their text is exactly what
    # json.dump's pure-Python encoder writes
    ck = tmp_path / "checkpoint.json"
    evolve(small_config(controller="modular", generations=2), HashEvaluator(), checkpoint_path=ck)
    text = ck.read_text()
    expected = io.StringIO()
    json.dump(json.loads(text), expected)  # floats, ints and strings round-trip exactly
    assert text == expected.getvalue()
    for payload in ({}, {"a": [], "b": {}, "ü\"": [[1.5, float("nan")], ("t", None)], "c": [{1: [True, -0.0, 1e300]}]}):
        written, expected = io.StringIO(), io.StringIO()
        # a value comes whole, or a list item by item
        parts = {k: [json.dumps(x) for x in v] if k in ("a", "c") else json.dumps(v) for k, v in payload.items()}
        evolution._write_json(written, parts)
        json.dump(payload, expected)
        assert written.getvalue() == expected.getvalue()


def test_a_record_s_text_is_json_dumps():
    # a checkpoint record's text puts the parameters' base64 in unscanned;
    # it is what json.dumps writes for the record, for either controller,
    # evaluated or not, with and without a parent
    rng = np.random.default_rng(20)
    for variant, fitness, parent, component in [("modular", 1.25, 3, "brain"), ("fixed", None, None, None)]:
        ind = Individual(
            id=7,
            morphology=random_morphology(5, 5, rng),
            controller=init_controller(variant, rng),
            parent_id=parent,
            mutated_component=component,
        )
        ind.fitness = fitness
        assert evolution._record_text(ind) == json.dumps(ind.to_json())
        assert evolution._snapshot_text(4, ind) == json.dumps([4, ind.to_json()])


def test_checkpoint_rejects_other_config(tmp_path):
    ck = tmp_path / "checkpoint.json"
    evolve(small_config(generations=4), HashEvaluator(), checkpoint_path=ck)
    with pytest.raises(ConfigError):
        evolve(small_config(generations=4, seed=99), HashEvaluator(), checkpoint_path=ck, resume=True)


def test_age_bookkeeping_over_generations():
    # age = (generations survived since creation) + (age inherited at birth);
    # children inherit the parent's pre-increment age, injectees start at 0
    config = small_config(generations=12)
    evaluator = HashEvaluator()
    pop = make_initial_population(config)
    for m, fit in zip(pop.members, evaluator.fitness_many([(m.morphology, m.controller) for m in pop.members])):
        m.set_fitness(fit)
    created = {m.id: (0, 0) for m in pop.members}  # id -> (gen created, age at creation)
    for _ in range(12):
        ages_before = {m.id: m.age for m in pop.members}
        pop = advance_generation(pop, evaluator, config)
        for m in pop.members:
            if m.id not in created:
                inherited = 0 if m.parent_id is None else ages_before[m.parent_id]
                created[m.id] = (pop.generation, inherited)
        for m in pop.members:
            born, inherited = created[m.id]
            assert m.age == (pop.generation - born) + inherited, (m.id, m.age)


def test_rng_streams_keyed_by_id():
    a = individual_rng(7, 3).normal(size=4)
    b = individual_rng(7, 3).normal(size=4)
    c = individual_rng(7, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(environment="swimmer").validate()
    with pytest.raises(ConfigError):
        small_config(controller="cppn").validate()
    with pytest.raises(ConfigError):
        small_config(generations=-1).validate()
    with pytest.raises(ConfigError):
        small_config(seed=-2).validate()
    small_config().validate()


def test_setting_names():
    assert small_config(height=5, width=5).setting_name() == "W5"
    assert small_config(environment="bridgewalker", height=7, width=7).setting_name() == "B7"
    # a non-square space names both sides, so it is not grouped with a square one
    assert small_config(height=5, width=7).setting_name() == "W5x7"
    assert small_config(environment="bridgewalker", height=7, width=5).setting_name() == "B7x5"


def test_fingerprint_sensitive_to_fields():
    base = small_config().fingerprint()
    assert small_config(seed=5).fingerprint() != base
    assert small_config(controller="modular").fingerprint() != base
    assert small_config().fingerprint() == base


def test_fingerprint_covers_every_field_but_where_the_run_writes(tmp_path):
    # built from the config's own fields, so a field added later cannot be
    # left out; the default config's digest names its cached desk run, so
    # its bytes are pinned
    base = RunConfig()
    assert base.fingerprint().startswith("45e45bc80338a1d1")
    for f in fields(RunConfig):
        if f.name not in ("output_dir", "freeze_body_path"):
            other = f.default + 1 if isinstance(f.default, int) else f"{f.default}-other"
            assert replace(base, **{f.name: other}).fingerprint() != base.fingerprint(), f.name
    assert replace(base, output_dir=str(tmp_path)).fingerprint() == base.fingerprint()


def test_frozen_body_population(rng):
    body = random_morphology(3, 3, rng)
    config = small_config(controller="modular", generations=3)
    res = evolve(config, HashEvaluator(), frozen_body=body)
    assert all(m.morphology == body for m in res.final_population.members)
    assert all(ind.morphology == body for _, ind in res.snapshots)


def test_fingerprint_hashes_the_frozen_body(tmp_path, rng):
    body = random_morphology(3, 3, rng)
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"run_id": "abc-s0", "morphology": body.to_json()}))
    config = small_config(controller="modular")
    named = small_config(controller="modular", freeze_body_path=str(path))
    assert named.fingerprint() == named.fingerprint(body) == config.fingerprint(body) != config.fingerprint()
    assert evolve(named, HashEvaluator()).fingerprint == named.fingerprint()


def test_checkpoints_tell_frozen_runs_apart(tmp_path, rng):
    # a run given its frozen body as a value, with no path in its config,
    # must not resume as a body-evolving run, nor the other way round
    body = random_morphology(3, 3, rng)
    config = small_config(controller="modular", generations=2)
    frozen_ck, free_ck = tmp_path / "frozen.json", tmp_path / "free.json"
    evolve(config, HashEvaluator(), frozen_body=body, checkpoint_path=frozen_ck)
    evolve(config, HashEvaluator(), checkpoint_path=free_ck)
    with pytest.raises(ConfigError):
        evolve(config, HashEvaluator(), checkpoint_path=frozen_ck, resume=True)
    with pytest.raises(ConfigError):
        evolve(config, HashEvaluator(), frozen_body=body, checkpoint_path=free_ck, resume=True)
    evolve(config, HashEvaluator(), frozen_body=body, checkpoint_path=frozen_ck, resume=True)


@pytest.mark.parametrize(
    "cells, controller",
    [
        ([[3, 0, 3], [0, 0, 0], [0, 0, 0]], "modular"),  # disconnected
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], "modular"),  # no actuator
        ([[3, 1], [1, 1]], "modular"),  # not the config's 3x3
        ([[3, 3, 3], [3, 3, 3], [3, 3, 3]], "fixed"),  # nothing to optimise
    ],
)
def test_untrainable_frozen_body_rejected(cells, controller):
    evaluator = HashEvaluator()
    with pytest.raises(ConfigError):
        evolve(small_config(controller=controller), evaluator, frozen_body=Morphology(cells))
    assert evaluator.calls == 0
