"""The compiled step and world builder against their numpy references, the
kernel's build, its memory safety, and the modular network's independence
of the CPU.

``sim_core.step`` is one call into ``_kernel.c``; ``oracles.reference_step``
is the same step in numpy, and ``oracles.reference_set_actuation_targets``
the target setter. Every golden setting steps under both, alone and as the
middle world of a union, and each step must leave the same bytes in every
array the step or the target setter writes. ``sim_core.build_worlds`` must
make every array ``oracles.reference_build_worlds`` makes, byte for byte.
Built with AddressSanitizer, the kernel must build and run unions without
one invalid access. The modular digests must hold under another OpenBLAS
kernel, with numpy's SIMD dispatch cut down, and in the network's baseline
clone.
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
from voxevo.control import compute_actions, controller_table, init_controller, stack_controllers
from voxevo.materials import ELASTIC
from voxevo.morphology import Morphology, random_morphology
from voxevo.sim_core import STEPS_PER_ACTION, build_worlds, set_actuation_targets, step
from voxevo.tasks import T_MAX
from voxevo.terrain import BRIDGE_SPAN_END, BRIDGE_SPAN_START, make_bridge_terrain, make_flat_terrain

from oracles import reference_build_worlds, reference_set_actuation_targets, reference_step, reference_strip
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


# --- building worlds ------------------------------------------------------------

TERRAINS = {"walker": make_flat_terrain(), "bridgewalker": make_bridge_terrain((7, 7)), "none": None}


def assert_same_state(state, reference):
    """Every array of two states, their starts and the kernel's arrays
    included, byte for byte and dtype for dtype; and the same bodies,
    terrain and time."""
    for name, value in vars(reference).items():
        if isinstance(value, np.ndarray):
            arrays = [(name, getattr(state, name), value)]
        elif name in ("starts", "kernel_arrays"):
            assert getattr(state, name).keys() == value.keys(), name
            arrays = [(f"{name}[{key}]", getattr(state, name)[key], array) for key, array in value.items()]
        else:
            continue
        for label, ours, theirs in arrays:
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), label
            assert ours.tobytes() == theirs.tobytes(), label
    assert state.morphologies == reference.morphologies
    assert (state.terrain, state.sim_time) == (reference.terrain, reference.sim_time)


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_the_golden_unions_build_as_the_reference(setting):
    pairs, terrain = golden_pairs(*setting, neighbours=1)
    bodies = [m for m, _ in pairs]
    assert_same_state(build_worlds(bodies, terrain), reference_build_worlds(bodies, terrain))


@pytest.mark.parametrize("terrain", list(TERRAINS.values()), ids=list(TERRAINS))
def test_random_unions_build_as_the_reference(terrain):
    # bodies of every shape from 1x1 to 7x7, a single actuator, a row, a
    # column and full grids among them, alone and in unions of mixed shapes
    # that repeat bodies, as the same object and as an equal copy
    rng = np.random.default_rng(21)
    corner_cases = [
        Morphology([[3]]),
        Morphology([[4, 1, 2, 3, 3, 2, 1]]),
        Morphology([[3], [2], [4], [1], [3]]),
        Morphology(np.full((7, 7), 4)),
        Morphology(rng.integers(1, 5, size=(7, 7))),
        Morphology(rng.integers(1, 5, size=(3, 6))),
    ]
    for body in corner_cases:
        assert_same_state(build_worlds([body], terrain), reference_build_worlds([body], terrain))
    for _ in range(30):
        bodies = [random_morphology(*rng.integers(1, 8, size=2).tolist(), rng) for _ in range(rng.integers(1, 5))]
        bodies += [bodies[0], Morphology(bodies[-1].cells.copy()), corner_cases[rng.integers(len(corner_cases))]]
        bodies = [bodies[k] for k in rng.permutation(len(bodies))]
        assert_same_state(build_worlds(bodies, terrain), reference_build_worlds(bodies, terrain))


def test_the_bare_strip_builds_as_the_reference():
    # the strip the static solve relaxes: a one-row body's rows, pinned at
    # both ends, with its top chain, alone and on no terrain
    span = int(BRIDGE_SPAN_START), int(BRIDGE_SPAN_END), ELASTIC
    strip = sim_core._union(*sim_core._strip_rows(*span), [], None)
    assert_same_state(strip, reference_strip(*span))


def sanitised_script(cache_dir: Path) -> str:
    """A fresh interpreter's program: build the kernel with AddressSanitizer
    into ``cache_dir``, then print ``sanitised_evidence``."""
    return (
        "import sys\nfrom pathlib import Path\nfrom voxevo import sim_core\n"
        f"sim_core._KERNEL_DIR = Path({str(cache_dir)!r})\n"
        "sim_core._CFLAGS = sim_core._CFLAGS + ('-fsanitize=address', '-fno-omit-frame-pointer')\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_kernel\nprint(test_kernel.sanitised_evidence())\n"
    )


def sanitised_evidence() -> str:
    """Build walker and bridgewalker unions of random 1x1 to 7x7 bodies, one
    repeated, and run each for 100 steps under a fixed and a modular
    controller; one digest of positions and velocities per run."""
    rng = np.random.default_rng(5)
    lines = []
    for environment in ("walker", "bridgewalker"):
        for variant in ("fixed", "modular"):
            bodies = [random_morphology(*rng.integers(1, 8, size=2).tolist(), rng) for _ in range(6)]
            state = build_worlds(bodies + bodies[:1], TERRAINS[environment])
            controllers = stack_controllers([init_controller(variant, rng) for _ in range(state.num_worlds)])
            sim_core.advance(state, 100, controller=controller_table(controllers, state))
            lines.append(hashlib.sha256(state.pos.tobytes() + state.vel.tobytes()).hexdigest())
    return "\n".join(lines)


def test_the_kernel_is_clean_under_address_sanitizer(tmp_path):
    # the builder writes tables whose sizes its own counting pass sets: a
    # kernel built with AddressSanitizer aborts on any access out of the
    # arrays, and must give the bits of the kernel this process runs
    runtime = subprocess.run(
        [sim_core._COMPILER, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("the compiler has no AddressSanitizer runtime")
    out = run_script(sanitised_script(tmp_path / "cache"), LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    assert [path.suffix for path in (tmp_path / "cache").iterdir()] == [".so"]
    assert out == sanitised_evidence()


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
