"""Golden numerics: a change to any episode's floating-point results fails here.

The digests pin the numerics of ``ENGINE_VERSION``: the sha256 of the
criterion-3 run's ``generations.csv`` (walker, 5x5, fixed controller, 50
generations, seed 7) and eight 500-step trajectories, one per setting (W5,
B5, W7, B7) and controller. A trajectory digest is sha256 over the ``pos``
and ``vel`` bytes after every step, rows in build order; its body and
controller come from ``default_rng([size, 99])``. Run as the middle world of
a 3-world union, the same world hashes to the same digest, and the
criterion-3 run writes the same bytes whether its batches run as one union
or as one union per CPU.

A change that moves them on purpose bumps ``ENGINE_VERSION``, regenerates
``.acceptance_cache/`` (``python tests/desk_runs.py``) and these digests,
and records why in CHANGES.md. A change that only reorders rows moves the
digests but no number: it re-pins them without a version bump, and
CHANGES.md records the proof, the new trajectories with their rows put back
in the old order hashing to the old digests.

``PYTHONPATH=src python tests/test_golden.py`` prints the current digests.

No episode makes a BLAS call, and the modular network uses no libm or numpy
transcendental: it is the kernel's own arithmetic, vectorised across hidden
units or rows, never across a sum (``_kernel.c``). So every digest holds
under every OpenBLAS kernel and every numpy SIMD dispatch, and in each of
the kernel's compiled clones; ``test_kernel.py`` checks both. The bridge
strip's static solve calls no BLAS either.
"""

import hashlib

import numpy as np
import pytest

from voxevo.cli import main as cli_main
from voxevo.control import compute_actions, init_controller
from voxevo.morphology import random_morphology
from voxevo.sim_core import ENGINE_VERSION, STEPS_PER_ACTION, build_worlds, set_actuation_targets, step
from voxevo.tasks import T_MAX, terrain_by_name

GOLDEN_ENGINE_VERSION = 5

CRITERION_3_CSV_SHA256 = "c84fa47bebace6be8f653308eb07db8d23324b21449cd1f30b21fc6d51dffc7d"

TRAJECTORY_SHA256 = {
    ("walker", 5, "fixed"): "a98a57b11af810d86be7934a04c04645e09ab81757c7b07759c3172ebdd91982",
    ("walker", 5, "modular"): "027b70b9bf92878b40f279961ed37779cc4e04835ac4e9547dd0b378c39d7b99",
    ("bridgewalker", 5, "fixed"): "398a9cd4ad5f8809a0b0d1e6e40b33bc43b6bcae10855f7c8e0b3503e97a82e3",
    ("bridgewalker", 5, "modular"): "87f02e7b6ec71a3e6ada13031526fdd4d1844c75aec8e44c350a6d13fe864b36",
    ("walker", 7, "fixed"): "20cca5306be861d36ca0044514af797af5800688bda8729526eb1e08411e57f1",
    ("walker", 7, "modular"): "194b0f963ed505cf601278b4b6e228392e62fee2ce4bdce5e5b1391ffd0e7961",
    ("bridgewalker", 7, "fixed"): "0e7cd546770538bed7ffea25523bb7fe903a4399dabd56c4fdd5b4ccbf8b2c8b",
    ("bridgewalker", 7, "modular"): "a3e0a9163955974f3a86d7b34630e0a58387fef197df40d0b3d783eb04584b22",
}


def golden_pairs(environment: str, size: int, variant: str, neighbours: int = 0):
    """The setting's (body, controller) pair from ``default_rng([size, 99])``,
    between ``neighbours`` pairs on each side drawn from
    ``default_rng([size, 7])``; and the setting's terrain."""
    rng = np.random.default_rng([size, 99])
    body = random_morphology(size, size, rng)
    pairs = [(body, init_controller(variant, rng))]
    others = np.random.default_rng([size, 7])
    for _ in range(neighbours):
        pairs.insert(0, (random_morphology(size, size, others), init_controller(variant, others)))
        pairs.append((random_morphology(size, size, others), init_controller(variant, others)))
    return pairs, terrain_by_name(environment, (size, size))


def trajectory_digest(environment: str, size: int, variant: str, neighbours: int = 0) -> str:
    """The setting's trajectory digest; with ``neighbours``, its world runs
    as the middle world of a union (``golden_pairs``), and only its rows are
    hashed."""
    pairs, terrain = golden_pairs(environment, size, variant, neighbours)
    state = build_worlds([m for m, _ in pairs], terrain)
    controllers = [c for _, c in pairs]
    rows = slice(state.starts["mass"][neighbours], state.starts["mass"][neighbours + 1])
    digest = hashlib.sha256()
    for t in range(T_MAX):
        if t % STEPS_PER_ACTION == 0:
            set_actuation_targets(state, compute_actions(controllers, state, t // STEPS_PER_ACTION))
        step(state)
        digest.update(state.pos[rows].tobytes())
        digest.update(state.vel[rows].tobytes())
    return digest.hexdigest()


def test_engine_version_matches_golden_data():
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_trajectory_digest(setting):
    digest = trajectory_digest(*setting)
    assert digest == TRAJECTORY_SHA256[setting], digest


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_trajectory_digest_in_a_union(setting):
    # the same trajectory as the middle world of a 3-world union: robot rows
    # read as a slice on flat terrain and by index on the bridge
    digest = trajectory_digest(*setting, neighbours=1)
    assert digest == TRAJECTORY_SHA256[setting], digest


def test_criterion_3_generations_csv_digest(tmp_path):
    out = tmp_path / "run"
    argv = ["evolve", "--env", "walker", "--size", "5x5", "--controller", "fixed"]
    assert cli_main(argv + ["--gens", "50", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "generations.csv").read_bytes()).hexdigest() == CRITERION_3_CSV_SHA256


@pytest.mark.parametrize("cpus", [1, 3])
def test_criterion_3_digest_does_not_depend_on_the_split(affinity, tmp_path, cpus):
    # each batch runs as one union per CPU at once, or as one union on one
    # CPU: the run writes the same bytes
    affinity(cpus)
    test_criterion_3_generations_csv_digest(tmp_path)


if __name__ == "__main__":
    for setting in TRAJECTORY_SHA256:
        print(setting, trajectory_digest(*setting))
