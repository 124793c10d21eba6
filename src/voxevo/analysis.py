"""Post-hoc analysis: retraining, cross-evaluation, statistics.

Covers the comparison protocols around finished runs: the config of a run
that re-optimizes a controller for a frozen champion body (which
``voxevo retrain`` passes to ``evolve`` with the body), scoring a champion
body under the open-loop controller, morphology convergence metrics on
champion sets, and two-sided rank-sum significance tests with an exact
small-sample branch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import RunConfig
from .morphology import Morphology, morphology_distance
from .tasks import EpisodeResult, TerrainSpec, run_episodes
from .control import ControllerGenome

EXACT_TEST_MAX_N = 12  # exact enumeration when n_a + n_b <= this
RETRAIN_GENERATIONS = 5000
STAR_THRESHOLDS = ((0.001, "***"), (0.005, "**"), (0.05, "*"))
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_CONFIDENCE = 0.95


@dataclass(frozen=True)
class ComparisonReport:
    label_a: str
    label_b: str
    u_statistic: float  # U of sample a
    p_value: float
    stars: str
    method: str  # "exact" | "normal"


def significance_stars(p_value: float) -> str:
    for threshold, stars in STAR_THRESHOLDS:
        if p_value < threshold:
            return stars
    return ""


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _u_from_rank_sum(rank_sum: float, n_a: int) -> float:
    return rank_sum - n_a * (n_a + 1) / 2.0


def rank_sum_test(samples_a, samples_b, labels: tuple[str, str] = ("a", "b")) -> ComparisonReport:
    """Two-sided Mann-Whitney U test with midrank tie handling.

    Exact permutation enumeration for combined sample sizes up to
    EXACT_TEST_MAX_N, otherwise a tie-corrected normal approximation with
    continuity correction.
    """
    a = np.asarray(list(samples_a), dtype=np.float64)
    b = np.asarray(list(samples_b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u_a = _u_from_rank_sum(float(ranks[:n_a].sum()), n_a)
    mean_u = n_a * n_b / 2.0

    if n_a + n_b <= EXACT_TEST_MAX_N:
        method = "exact"
        observed_dev = abs(u_a - mean_u)
        total = 0
        at_least = 0
        for combo in itertools.combinations(range(n_a + n_b), n_a):
            u = _u_from_rank_sum(float(ranks[list(combo)].sum()), n_a)
            total += 1
            if abs(u - mean_u) >= observed_dev - 1e-9:
                at_least += 1
        p = at_least / total
    else:
        method = "normal"
        n = n_a + n_b
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(((tie_counts**3) - tie_counts).sum()) / (n * (n - 1))
        sigma_sq = n_a * n_b / 12.0 * ((n + 1) - tie_term)
        if sigma_sq <= 0:
            p = 1.0
        else:
            z = max(abs(u_a - mean_u) - 0.5, 0.0) / math.sqrt(sigma_sq)
            p = min(1.0, math.erfc(z / math.sqrt(2.0)))

    return ComparisonReport(
        label_a=labels[0],
        label_b=labels[1],
        u_statistic=u_a,
        p_value=p,
        stars=significance_stars(p),
        method=method,
    )


def intra_cluster_distance(bodies: list[Morphology]) -> float:
    """Mean Hamming distance over all unordered pairs of bodies."""
    if len(bodies) < 2:
        raise ValueError("need at least 2 bodies")
    return mean_pair_distance(distance_matrix(bodies))


def mean_pair_distance(matrix: np.ndarray) -> float:
    """The mean of a distance matrix's upper triangle: each unordered pair
    once, in ``itertools.combinations`` order."""
    return float(np.mean(matrix[np.triu_indices(len(matrix), k=1)]))


def distance_matrix(bodies: list[Morphology]) -> np.ndarray:
    n = len(bodies)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = morphology_distance(bodies[i], bodies[j])
    return out


def export_distance_matrix(bodies: list[Morphology], labels: list[str], path) -> np.ndarray:
    """Write the symmetric pairwise distance matrix as labelled CSV."""
    if len(labels) != len(bodies):
        raise ValueError("one label per body required")
    matrix = distance_matrix(bodies)
    with open(path, "w", newline="") as fh:
        fh.write("," + ",".join(labels) + "\n")
        for label, row in zip(labels, matrix):
            fh.write(label + "," + ",".join(str(v) for v in row) + "\n")
    return matrix


def bootstrap_mean_ci(
    samples: np.ndarray,
    n_resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and BOOTSTRAP_CONFIDENCE bootstrap CI of the column-wise mean
    of (n_runs, ...) samples."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = samples.shape[0]
    means = np.empty((n_resamples,) + samples.shape[1:])
    for i in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        means[i] = samples[idx].mean(axis=0)
    alpha = (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0
    lo = np.quantile(means, alpha, axis=0)
    hi = np.quantile(means, 1.0 - alpha, axis=0)
    return samples.mean(axis=0), lo, hi


def retrain_config(config: RunConfig, body: Morphology) -> RunConfig:
    """The config of a run that retrains ``body``: its morphology space
    becomes the body's and its controller modular. This is the one place a
    config is adapted to a retrained body."""
    return replace(config, height=body.h, width=body.w, controller="modular")


def cross_evaluate_fixed(champion_body: Morphology, terrain: TerrainSpec) -> EpisodeResult:
    """Score a body under the open-loop controller: one deterministic episode."""
    fixed = ControllerGenome("fixed", np.zeros(0))
    return run_episodes([(champion_body, fixed)], terrain)[0]
