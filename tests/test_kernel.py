"""The compiled step against the numpy reference step, the kernel's build,
and the modular network's independence of the CPU.

``sim_core.step`` is one call into ``_kernel.c``; ``oracles.reference_step``
is the same step in numpy, and ``oracles.reference_set_actuation_targets``
the target setter. Every golden setting steps under both, alone and as the
middle world of a union, and each step must leave the same bytes in every
array the step or the target setter writes. The modular digests must hold
under another OpenBLAS kernel, with numpy's SIMD dispatch cut down, and in
the network's baseline clone.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxevo
from voxevo import sim_core
from voxevo.control import compute_actions, stack_controllers
from voxevo.morphology import Morphology
from voxevo.sim_core import STEPS_PER_ACTION, build_worlds, set_actuation_targets, step
from voxevo.tasks import T_MAX
from voxevo.terrain import make_flat_terrain

from oracles import reference_set_actuation_targets, reference_step
from test_golden import TRAJECTORY_SHA256, golden_pairs, trajectory_digest
from test_sim_core import sunk_into_the_strip

# every array a step or the target setter writes; the force table whole, so
# that its unused rows must hold the same leftovers too
WRITTEN = ("pos", "vel", "spring_current_rest", "force_terms", "force_bins", "spring_target_rest", "clamped_actions")
SRC = str(Path(voxevo.__file__).resolve().parent.parent)


def twin_unions(pairs, terrain):
    """Two equal unions of the pairs' worlds, one for each engine, and their
    controllers."""
    bodies = [m for m, _ in pairs]
    return build_worlds(bodies, terrain), build_worlds(bodies, terrain), stack_controllers([c for _, c in pairs])


def act(state, controllers, t, set_targets=set_actuation_targets):
    if t % STEPS_PER_ACTION == 0:
        set_targets(state, compute_actions(controllers, state, t // STEPS_PER_ACTION))


@pytest.mark.parametrize("neighbours", [0, 1], ids=["alone", "union"])
@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_step_is_the_reference_step_bit_for_bit(setting, neighbours):
    kernel, oracle, controllers = twin_unions(*golden_pairs(*setting, neighbours))
    for t in range(T_MAX):
        act(kernel, controllers, t)
        act(oracle, controllers, t, reference_set_actuation_targets)
        assert step(kernel).tolist() == reference_step(oracle).tolist() == []
        for name in WRITTEN:
            assert getattr(kernel, name).tobytes() == getattr(oracle, name).tobytes(), f"{name} after step {t + 1}"
    assert kernel.sim_time == oracle.sim_time == T_MAX


def test_strip_contact_is_the_reference_bit_for_bit():
    # three robots stand on the span, sunk into the strip and moving: the
    # golden robots barely reach the span in an episode, these press on it
    # from the first step
    kernel, _ = sunk_into_the_strip()
    oracle, _ = sunk_into_the_strip()
    for t in range(200):
        assert step(kernel).tolist() == reference_step(oracle).tolist() == []
        for name in WRITTEN:
            assert getattr(kernel, name).tobytes() == getattr(oracle, name).tobytes(), f"{name} after step {t + 1}"


@pytest.mark.parametrize("fling", [np.nan, -2e6], ids=["nan", "flung"])
@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_a_diverging_world_is_named_on_the_reference_step(environment, fling):
    # the middle world's velocity is spoiled: both engines name it once, on
    # the same step, and its neighbours step on as they do alone. Parking
    # returns its rest lengths to their build-time values, so a NaN command
    # leaves nothing that names it again. The spoiled world's own bytes are
    # compared only once it is parked: its NaN force terms may carry another
    # sign bit than numpy's, which no result reads
    pairs, terrain = golden_pairs(environment, 5, "modular", neighbours=1)
    kernel, oracle, controllers = twin_unions(pairs, terrain)
    alone = [build_worlds([m], terrain) for m, _ in pairs]
    alone_controllers = [stack_controllers([c]) for _, c in pairs]
    for state in (kernel, oracle):
        state.vel[state.mass_world == 1] = fling
    named = []
    for t in range(T_MAX):
        act(kernel, controllers, t)
        act(oracle, controllers, t, reference_set_actuation_targets)
        blown = step(kernel)
        assert blown.tolist() == reference_step(oracle).tolist(), f"step {t + 1}"
        if blown.size:
            named.append((t, blown.tolist()))
            for state in (kernel, oracle):
                state.park(np.isin(np.arange(3), blown))
        elif named:
            for name in WRITTEN:
                assert getattr(kernel, name).tobytes() == getattr(oracle, name).tobytes(), f"{name} after step {t + 1}"
        for w in (0, 2):
            act(alone[w], alone_controllers[w], t)
            assert step(alone[w]).size == 0
            rows = slice(kernel.starts["mass"][w], kernel.starts["mass"][w + 1])
            assert kernel.pos[rows].tobytes() == alone[w].pos.tobytes()
            assert kernel.vel[rows].tobytes() == alone[w].vel.tobytes()
    assert len(named) == 1 and named[0][1] == [1]
    if np.isnan(fling):
        assert named[0][0] == 0


# --- building and loading the kernel ------------------------------------------


def stepped_digest_script(cache_dir: Path) -> str:
    """A fresh interpreter's program: build the kernel into ``cache_dir``,
    step a small world and print the digest of its positions and velocities."""
    return (
        "import hashlib, sys\n"
        "from pathlib import Path\n"
        "from voxevo import sim_core\n"
        "from voxevo.morphology import Morphology\n"
        "from voxevo.terrain import make_flat_terrain\n"
        f"sim_core._KERNEL_DIR = Path({str(cache_dir)!r})\n"
        "w = sim_core.build_world(Morphology([[3, 1], [2, 4]]), make_flat_terrain())\n"
        "for _ in range(200):\n"
        "    sim_core.step(w)\n"
        "print(hashlib.sha256(w.pos.tobytes() + w.vel.tobytes()).hexdigest())\n"
    )


def test_two_first_builds_at_once_step_to_the_same_bytes(tmp_path):
    # two processes build into one empty cache directory at the same time;
    # each renames a whole library into place, so neither loads half of one
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=SRC)
    script = stepped_digest_script(cache)
    runs = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    w = sim_core.build_world(Morphology([[3, 1], [2, 4]]), make_flat_terrain())
    for _ in range(200):
        step(w)
    here = hashlib.sha256(w.pos.tobytes() + w.vel.tobytes()).hexdigest()
    assert [out.strip() for out, _ in outputs] == [here, here]
    assert [path.suffix for path in cache.iterdir()] == [".so"]


def test_a_missing_compiler_is_an_error_that_names_it(tmp_path, monkeypatch):
    monkeypatch.setattr(sim_core, "_COMPILER", "no-such-compiler-here")
    monkeypatch.setattr(sim_core, "_KERNEL_DIR", tmp_path / "cache")
    with pytest.raises(sim_core.KernelBuildError) as error:
        sim_core._load_kernel()
    message = str(error.value)
    assert "no-such-compiler-here -O2 -ffp-contract=off" in message
    assert str(tmp_path / "cache") in message
    assert "No such file" in message
    assert not any((tmp_path / "cache").iterdir()), "a failed build leaves nothing behind"


def test_a_failing_compiler_is_an_error_that_shows_its_complaint(tmp_path, monkeypatch):
    compiler = tmp_path / "failing-cc"
    compiler.write_text("#!/bin/sh\necho 'failing-cc: this source will not do' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(sim_core, "_COMPILER", str(compiler))
    monkeypatch.setattr(sim_core, "_KERNEL_DIR", tmp_path / "cache")
    with pytest.raises(sim_core.KernelBuildError, match="failing-cc: this source will not do") as error:
        sim_core._load_kernel()
    assert str(compiler) in str(error.value) and str(tmp_path / "cache") in str(error.value)
    assert not any((tmp_path / "cache").iterdir())


def test_a_cache_hit_starts_no_process(monkeypatch):
    sim_core._kernel()  # built, or found, by now

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert sim_core._load_kernel().vx_run


def test_the_kernel_compiles_without_warnings(tmp_path):
    # every warning GCC's -Wall -Wextra can raise is an error here, so the
    # growing kernel stays warning-free
    command = [sim_core._COMPILER, *sim_core._CFLAGS, "-Wall", "-Wextra", "-Werror"]
    command += ["-o", str(tmp_path / "kernel.so"), str(sim_core._KERNEL_SOURCE), "-lm"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# --- the modular network on every CPU -----------------------------------------

MODULAR = [setting for setting in TRAJECTORY_SHA256 if setting[2] == "modular"]


def modular_evidence_script(cache_dir: Path | None = None, cflags: tuple = ()) -> str:
    """A fresh interpreter's program: print the modular golden digests and
    the bytes of one union's first modular commands, with the kernel built
    with ``cflags`` added into ``cache_dir`` if one is given."""
    script = "import sys\nfrom pathlib import Path\nfrom voxevo import sim_core\n"
    if cache_dir is not None:
        script += f"sim_core._KERNEL_DIR = Path({str(cache_dir)!r})\n"
        script += f"sim_core._CFLAGS = sim_core._CFLAGS + {tuple(cflags)!r}\n"
    script += f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
    script += "import test_kernel\nprint(test_kernel.modular_evidence())\n"
    return script


def modular_evidence() -> str:
    """The modular golden digests, and the hex bytes of a stepped B7 union's
    modular commands, one line each."""
    lines = [trajectory_digest(*setting) for setting in MODULAR]
    pairs, terrain = golden_pairs("bridgewalker", 7, "modular", neighbours=1)
    state, _, controllers = twin_unions(pairs, terrain)
    for t in range(23):
        act(state, controllers, t)
        step(state)
    lines.append(compute_actions(controllers, state, 5).tobytes().hex())
    return "\n".join(lines)


def run_script(script: str, **env) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "env",
    [{"OPENBLAS_CORETYPE": "Prescott"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}],
    ids=["openblas-prescott", "numpy-without-avx2"],
)
def test_modular_digests_are_cpu_independent(env):
    # the network calls no BLAS and no numpy or libm transcendental, so
    # neither OpenBLAS's kernel nor numpy's SIMD dispatch moves a bit
    out = run_script(modular_evidence_script(), **env).splitlines()
    assert out[: len(MODULAR)] == [TRAJECTORY_SHA256[setting] for setting in MODULAR]


def test_the_network_clones_agree(tmp_path):
    # the network's baseline clone alone (VX_DEFAULT_CLONE_ONLY), built into
    # a cache of its own, gives the commands and the digests of the clone
    # this CPU dispatches to
    out = run_script(modular_evidence_script(tmp_path / "cache", ("-DVX_DEFAULT_CLONE_ONLY",)))
    assert [path.suffix for path in (tmp_path / "cache").iterdir()] == [".so"]
    assert out == modular_evidence()
    assert out.splitlines()[: len(MODULAR)] == [TRAJECTORY_SHA256[setting] for setting in MODULAR]
