import numpy as np
import pytest

from voxevo.analysis import (
    bootstrap_mean_ci,
    cross_evaluate_fixed,
    distance_matrix,
    export_distance_matrix,
    intra_cluster_distance,
    rank_sum_test,
    retrain_config,
    significance_stars,
)
from voxevo.evolution import RunConfig, evolve
from voxevo.morphology import Morphology, random_morphology
from voxevo.tasks import make_flat_terrain


# --- rank-sum test -----------------------------------------------------------


def test_exact_separated_samples():
    rep = rank_sum_test([1, 2, 3], [4, 5, 6])
    assert rep.method == "exact"
    assert rep.u_statistic == 0.0
    # 2 of the C(6,3)=20 assignments are at least this extreme
    assert rep.p_value == pytest.approx(0.1)


def test_exact_identical_samples():
    rep = rank_sum_test([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert rep.p_value == 1.0
    assert rep.stars == ""


def test_swapping_samples_leaves_p_unchanged(rng):
    a = rng.normal(size=5).tolist()
    b = rng.normal(size=6).tolist()
    assert rank_sum_test(a, b).p_value == pytest.approx(rank_sum_test(b, a).p_value)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        rank_sum_test([], [1.0])


def test_exact_matches_scipy_on_continuous_samples(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    for _ in range(50):
        a = rng.normal(size=5)
        b = rng.normal(size=6)
        ours = rank_sum_test(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)
        assert ours.u_statistic == pytest.approx(ref.statistic)


def test_exact_vs_normal_agreement_at_n6():
    # the exact branch is its own oracle for the approximation
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=6)
        b = rng.normal(size=6) + rng.uniform(-1, 1)
        exact = rank_sum_test(a, b).p_value
        approx = _normal_branch(a, b)
        worst = max(worst, abs(exact - approx))
    assert worst <= 0.02


def _normal_branch(a, b):
    # force the large-sample path by duplicating the call on padded labels
    from voxevo import analysis

    original = analysis.EXACT_TEST_MAX_N
    analysis.EXACT_TEST_MAX_N = 0
    try:
        return rank_sum_test(a, b).p_value
    finally:
        analysis.EXACT_TEST_MAX_N = original


def test_normal_branch_used_for_large_samples(rng):
    rep = rank_sum_test(rng.normal(size=10), rng.normal(size=10))
    assert rep.method == "normal"
    assert 0.0 <= rep.p_value <= 1.0


def test_normal_branch_handles_heavy_ties():
    rep = rank_sum_test([1.0] * 10, [1.0] * 10)
    assert rep.method == "normal"
    assert rep.p_value == 1.0


def test_star_thresholds():
    assert significance_stars(0.0005) == "***"
    assert significance_stars(0.003) == "**"
    assert significance_stars(0.04) == "*"
    assert significance_stars(0.2) == ""
    # thresholds are strict
    assert significance_stars(0.05) == ""
    assert significance_stars(0.001) == "**"


# --- morphology statistics -----------------------------------------------------


def test_intra_cluster_examples():
    a = Morphology([[3, 1], [2, 4]])
    assert intra_cluster_distance([a, a]) == 0.0
    b = Morphology([[4, 2], [1, 3]])  # distance 4 from a
    assert intra_cluster_distance([a, b]) == 4.0
    with pytest.raises(ValueError):
        intra_cluster_distance([a])


def test_intra_cluster_mean_of_pairs():
    a = Morphology([[1, 1, 1, 3]])
    b = Morphology([[1, 1, 3, 4]])  # d(a,b) = 2
    c = Morphology([[2, 2, 1, 3]])  # d(a,c) = 2, d(b,c) = 4
    assert intra_cluster_distance([a, b, c]) == pytest.approx((2 + 2 + 4) / 3)


def test_intra_cluster_permutation_invariant(rng):
    bodies = [random_morphology(5, 5, rng) for _ in range(5)]
    base = intra_cluster_distance(bodies)
    perm = [bodies[i] for i in rng.permutation(5)]
    assert intra_cluster_distance(perm) == pytest.approx(base)


def test_distance_matrix_properties(rng):
    bodies = [random_morphology(4, 4, rng) for _ in range(6)]
    mat = distance_matrix(bodies)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


def test_export_distance_matrix(tmp_path, rng):
    bodies = [random_morphology(4, 4, rng) for _ in range(3)]
    path = tmp_path / "distances.csv"
    mat = export_distance_matrix(bodies, ["r0", "r1", "r2"], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",r0,r1,r2"
    first_row = lines[1].split(",")
    assert first_row[0] == "r0"
    assert [int(v) for v in first_row[1:]] == mat[0].tolist()
    with pytest.raises(ValueError):
        export_distance_matrix(bodies, ["a"], tmp_path / "bad.csv")


# --- bootstrap and curves ---------------------------------------------------


def test_bootstrap_constant_group_zero_width():
    curves = np.full((5, 20), 3.25)
    mean, lo, hi = bootstrap_mean_ci(curves, n_resamples=200)
    assert np.all(mean == 3.25)
    assert np.all(lo == 3.25)
    assert np.all(hi == 3.25)


def test_bootstrap_brackets_mean(rng):
    curves = rng.normal(5.0, 1.0, size=(20, 10))
    mean, lo, hi = bootstrap_mean_ci(curves, n_resamples=500)
    assert np.all(lo <= mean + 1e-12)
    assert np.all(mean <= hi + 1e-12)
    assert np.all(hi - lo < 2.5)


def test_bootstrap_deterministic_given_seed(rng):
    curves = rng.normal(size=(6, 8))
    a = bootstrap_mean_ci(curves, n_resamples=100, seed=3)
    b = bootstrap_mean_ci(curves, n_resamples=100, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# --- retraining and cross-evaluation -----------------------------------------


def retrain(body, config, evaluator):
    """What ``voxevo retrain`` runs: the config adapted to the body, and the body passed as a value."""
    return evolve(retrain_config(config, body), evaluator, frozen_body=body)


def test_retrain_keeps_body_frozen(rng):
    body = random_morphology(3, 3, rng)
    config = RunConfig(
        environment="walker",
        height=5,
        width=5,
        controller="fixed",
        generations=2,
        population_size=6,
        seed=1,
    )

    class CheapEvaluator:
        def fitness_many(self, pairs):
            for morphology, controller in pairs:
                assert morphology == body, "retraining must never touch the body"
            return [float(np.sum(c.params[:5])) for _, c in pairs]

    result = retrain(body, config, CheapEvaluator())
    assert all(m.morphology == body for m in result.final_population.members)
    assert all(m.controller.variant == "modular" for m in result.final_population.members)
    assert (result.config.height, result.config.width, result.config.controller) == (3, 3, "modular")


def test_retrain_generation_zero_best_of_random(rng):
    body = random_morphology(3, 3, rng)
    config = RunConfig(
        environment="walker", height=3, width=3, controller="modular",
        generations=0, population_size=6, seed=1,
    )

    class ParamSum:
        def fitness_many(self, pairs):
            return [float(np.sum(c.params)) for _, c in pairs]

    result = retrain(body, config, ParamSum())
    fits = [m.fitness for m in result.final_population.members]
    assert result.champion.fitness == max(fits)
    assert len(fits) == 6


def test_cross_evaluate_symmetric_body_barely_moves():
    body = Morphology(np.full((2, 2), 3, dtype=np.int8))
    result = cross_evaluate_fixed(body, make_flat_terrain())
    assert abs(result.fitness) <= 1.0


def test_cross_evaluate_deterministic(rng):
    body = random_morphology(5, 5, rng)
    terrain = make_flat_terrain()
    assert cross_evaluate_fixed(body, terrain) == cross_evaluate_fixed(body, terrain)
