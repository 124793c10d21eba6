import numpy as np
import pytest

from voxevo.morphology import (
    InvalidMorphologyError,
    Morphology,
    is_valid,
    morphology_distance,
    mutate_morphology,
    random_morphology,
    repair_to_largest_component,
    resample_cells,
    validity_report,
)


def test_codes_outside_range_unrepresentable():
    with pytest.raises(InvalidMorphologyError):
        Morphology([[5]])
    with pytest.raises(InvalidMorphologyError):
        Morphology([[-1, 2]])
    # beyond int8: rejected by the range check, not wrapped or overflowed
    for code in (260, -300, 2**40):
        with pytest.raises(InvalidMorphologyError):
            Morphology([[code]])
    with pytest.raises(InvalidMorphologyError):
        Morphology.from_json({"h": 1, "w": 1, "cells": [[260]]})


def test_non_integer_codes_rejected():
    # not truncated (3.7 -> 3) or parsed ("3" -> 3)
    for cells in ([[3.7]], [[3.0]], [["3"]], [[True]], [[None]]):
        with pytest.raises(InvalidMorphologyError):
            Morphology(cells)
        with pytest.raises(InvalidMorphologyError):
            Morphology.from_json({"h": 1, "w": 1, "cells": cells})
    assert Morphology(np.array([[3, 1]], dtype=np.uint8)) == Morphology([[3, 1]])


def test_cells_are_frozen(single_actuator):
    with pytest.raises(ValueError):
        single_actuator.cells[0, 0] = 1


def test_validity_examples():
    assert not is_valid(Morphology([[3, 0], [0, 1]]))  # disconnected
    assert not is_valid(Morphology([[1, 1], [1, 1]]))  # no actuator
    assert is_valid(Morphology([[3, 1], [2, 4]]))
    ok, reason = validity_report(Morphology([[0, 0], [0, 0]]))
    assert not ok and "empty" in reason


def test_random_morphology_satisfies_invariants(rng):
    for _ in range(50):
        m = random_morphology(5, 5, rng)
        assert is_valid(m)
        assert m.cells.shape == (5, 5)


def test_random_morphology_1x1_single_actuator(rng):
    m = random_morphology(1, 1, rng)
    assert is_valid(m)
    assert m.cells[0, 0] in (3, 4)


def test_random_morphology_rejects_degenerate_dims(rng):
    with pytest.raises(ValueError):
        random_morphology(0, 5, rng)


def test_material_frequencies_consistent_across_seeds():
    # post-repair code frequencies should agree between two independent
    # seeds to within 2% relative
    def frequencies(seed, n=100_000):
        rng = np.random.default_rng(seed)
        counts = np.zeros(5)
        for _ in range(n):
            m = random_morphology(5, 5, rng)
            counts += np.bincount(m.cells.ravel(), minlength=5)
        kept = counts[1:]  # frequencies among retained (non-empty) cells
        return kept / kept.sum()

    fa = frequencies(11, n=20_000)
    fb = frequencies(97, n=20_000)
    mean = 0.5 * (fa + fb)
    assert np.all(np.abs(fa - mean) / mean <= 0.02)
    assert np.all(np.abs(fb - mean) / mean <= 0.02)


def test_mutation_rate_zero_is_identity(rng, small_body):
    child = mutate_morphology(small_body, rng, rate=0.0)
    assert child == small_body


def test_raw_flip_count_matches_binomial_mean():
    # 25 cells at 10% -> mean 2.5 changed cells before repair
    rng = np.random.default_rng(7)
    cells = np.full((5, 5), 2, dtype=np.int8)
    total = 0
    n = 100_000
    for _ in range(n):
        total += int(np.count_nonzero(resample_cells(cells, rng) != cells))
    assert abs(total / n - 2.5) <= 0.05


def test_resample_targets_never_equal_source(rng):
    cells = np.arange(25, dtype=np.int8).reshape(5, 5) % 5
    for _ in range(200):
        flipped = resample_cells(cells, rng, rate=1.0)
        assert np.all(flipped != cells)
        assert flipped.min() >= 0 and flipped.max() <= 4


def test_mutation_output_always_valid(rng):
    m = random_morphology(5, 5, rng)
    for _ in range(300):
        m = mutate_morphology(m, rng)
        assert is_valid(m)


def test_mutating_1x1_actuator_keeps_an_actuator(rng):
    parent = Morphology([[3]])
    for _ in range(200):
        child = mutate_morphology(parent, rng)
        assert child.cells[0, 0] in (3, 4)


def test_repair_never_adds_cells(rng):
    for _ in range(200):
        raw = rng.integers(0, 5, size=(6, 6), dtype=np.int8)
        repaired = repair_to_largest_component(raw)
        raw_filled = raw != 0
        rep_filled = repaired != 0
        assert np.all(rep_filled <= raw_filled)
        # kept cells keep their code
        assert np.all(repaired[rep_filled] == raw[rep_filled])


def test_repair_tie_break_deterministic():
    grid = np.array(
        [
            [1, 0, 0],
            [0, 0, 0],
            [0, 0, 3],
        ],
        dtype=np.int8,
    )
    repaired = repair_to_largest_component(grid)
    # equal-size components: the one containing the first row-major cell wins
    assert repaired[0, 0] == 1 and repaired[2, 2] == 0


def test_distance_examples(small_body):
    assert morphology_distance(small_body, small_body) == 0
    other = Morphology([[3, 2], [1, 4]])
    assert morphology_distance(small_body, other) == 2
    with pytest.raises(ValueError):
        morphology_distance(small_body, Morphology([[3]]))


def test_distance_metric_properties(rng):
    bodies = [random_morphology(5, 5, rng) for _ in range(12)]
    for a in bodies:
        for b in bodies:
            assert morphology_distance(a, b) == morphology_distance(b, a)
            for c in bodies:
                assert morphology_distance(a, c) <= morphology_distance(a, b) + morphology_distance(b, c)


def test_json_round_trip(rng):
    m = random_morphology(7, 7, rng)
    again = Morphology.from_json(m.to_json())
    assert again == m
    assert m.is_canonical_size
    assert not Morphology([[3, 1]]).is_canonical_size
