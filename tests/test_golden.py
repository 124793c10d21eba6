"""Golden numerics: a change to any episode's floating-point results fails here.

The digests pin the numerics of ``ENGINE_VERSION``: the sha256 of the
criterion-3 run's ``generations.csv`` (walker, 5x5, fixed controller, 50
generations, seed 7) and eight 500-step trajectories, one per setting (W5,
B5, W7, B7) and controller. A trajectory digest is sha256 over the ``pos``
and ``vel`` bytes after every step; its body and controller come from
``default_rng([size, 99])``.

A change that moves them on purpose bumps ``ENGINE_VERSION``, regenerates
``.acceptance_cache/`` (``python tests/desk_runs.py``) and these digests,
and records why in CHANGES.md.

The fixed-controller digests make no BLAS call, so they hold under every
OpenBLAS kernel (``OPENBLAS_CORETYPE=Haswell`` included). The modular
digests still depend on the kernel, through the controller GEMM.
"""

import hashlib

import numpy as np
import pytest

from voxevo.cli import main as cli_main
from voxevo.control import compute_actions, init_controller, stack_controllers
from voxevo.morphology import random_morphology
from voxevo.sim_core import ENGINE_VERSION, STEPS_PER_ACTION, build_world, set_actuation_targets, step
from voxevo.tasks import T_MAX, terrain_by_name

GOLDEN_ENGINE_VERSION = 3

CRITERION_3_CSV_SHA256 = "c84fa47bebace6be8f653308eb07db8d23324b21449cd1f30b21fc6d51dffc7d"

TRAJECTORY_SHA256 = {
    ("walker", 5, "fixed"): "a98a57b11af810d86be7934a04c04645e09ab81757c7b07759c3172ebdd91982",
    ("walker", 5, "modular"): "96ee125d8ef05770d1ccf1b073c79cd188106b27df3addebbd5aefe0f028ae22",
    ("bridgewalker", 5, "fixed"): "079765f20e7b79fd4863a6c2a64d77a80524302cba59329d83b30c13f79bf3a0",
    ("bridgewalker", 5, "modular"): "7de3b812d7d5bce50a40fda5b62da1d62680bc85d43eadfd066d26f3f2f9b7c5",
    ("walker", 7, "fixed"): "20cca5306be861d36ca0044514af797af5800688bda8729526eb1e08411e57f1",
    ("walker", 7, "modular"): "9a1ce57d35d75839248f180b3b905e6f31ed381f001ad02eb95d68f2ba787f11",
    ("bridgewalker", 7, "fixed"): "31d8ecc05fb224e9a5c9ff631c0b95741a4ad10cb29b1bfd7e3efda65239b7ef",
    ("bridgewalker", 7, "modular"): "4876a3fc284091267078f162c2251bff77c07263a2773f301cae4cf7e0a9020a",
}


def trajectory_digest(environment: str, size: int, variant: str) -> str:
    rng = np.random.default_rng([size, 99])
    body = random_morphology(size, size, rng)
    controllers = stack_controllers([init_controller(variant, rng)])
    state = build_world(body, terrain_by_name(environment, (size, size)))
    digest = hashlib.sha256()
    for t in range(T_MAX):
        if t % STEPS_PER_ACTION == 0:
            set_actuation_targets(state, compute_actions(controllers, state, t // STEPS_PER_ACTION))
        step(state)
        digest.update(state.pos.tobytes())
        digest.update(state.vel.tobytes())
    return digest.hexdigest()


def test_engine_version_matches_golden_data():
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_trajectory_digest(setting):
    assert trajectory_digest(*setting) == TRAJECTORY_SHA256[setting]


def test_criterion_3_generations_csv_digest(tmp_path):
    out = tmp_path / "run"
    argv = ["evolve", "--env", "walker", "--size", "5x5", "--controller", "fixed"]
    assert cli_main(argv + ["--gens", "50", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "generations.csv").read_bytes()).hexdigest() == CRITERION_3_CSV_SHA256
