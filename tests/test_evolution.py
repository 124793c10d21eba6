import hashlib
import io
import itertools
import json

import numpy as np
import pytest

from voxevo import evolution
from voxevo.control import ControllerGenome, init_controller
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
    curve = np.maximum.accumulate(res.best_curve())
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


def test_checkpoint_round_trip(tmp_path):
    ck = tmp_path / "checkpoint.json"
    evolve(small_config(generations=4), HashEvaluator(), checkpoint_path=ck)
    saved = load_checkpoint(ck)
    assert saved["generation"] == 4
    assert len(saved["members"]) == 8
    assert saved["config"].generations == 4


def test_checkpoint_text_is_json_dumps(tmp_path):
    # checkpoints go through the C encoder one piece at a time, and their
    # text is exactly what json.dump's pure-Python encoder writes
    ck = tmp_path / "checkpoint.json"
    evolve(small_config(controller="modular", generations=2), HashEvaluator(), checkpoint_path=ck)
    text = ck.read_text()
    expected = io.StringIO()
    json.dump(json.loads(text), expected)  # floats, ints and strings round-trip exactly
    assert text == expected.getvalue()
    for payload in ({}, {"a": [], "b": {}, "ü\"": [[1.5, float("nan")], ("t", None)], "c": [{1: [True, -0.0, 1e300]}]}):
        written, expected = io.StringIO(), io.StringIO()
        evolution._write_json(written, payload)
        json.dump(payload, expected)
        assert written.getvalue() == expected.getvalue()


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


def test_fingerprint_sensitive_to_fields():
    base = small_config().fingerprint()
    assert small_config(seed=5).fingerprint() != base
    assert small_config(controller="modular").fingerprint() != base
    assert small_config().fingerprint() == base


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
