"""The compiled step and world builder against their numpy references, the
kernel's build, its interface as Python reads it, its memory safety, and its
independence of the CPU.

``sim_core.step`` is one call into ``_kernel.c``; ``oracles.reference_step``
is the same step in numpy, and ``oracles.reference_set_actuation_targets``
the target setter. Every golden setting steps under both, alone and as the
middle world of a union, and each step must leave the same bytes in every
array the step or the target setter writes. ``sim_core.build_worlds`` must
make every table ``oracles.reference_build_worlds`` makes, byte for byte,
each read where the union's kernel ``Table`` points, inside its one buffer.
Built with AddressSanitizer, which also sees the gaps between the buffer's
tables, the kernel must build and run unions without one invalid access. Two unions advanced at once, on two threads, must end
with the bytes they end with one after the other. The modular digests must
hold under another OpenBLAS kernel and with numpy's SIMD dispatch cut down,
and every golden digest in the kernel's baseline clones. The structs that Python reads from
``_kernel.c`` must have the compiler's layout, and every function the
library exports must have its types declared.
"""

import ctypes
import hashlib
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import voxevo
from voxevo import sim_core
from voxevo.control import compute_actions, controller_table, init_controller
from voxevo.materials import ELASTIC, RIGID
from voxevo.morphology import Morphology, random_morphology
from voxevo.sim_core import STEPS_PER_ACTION, build_worlds, set_actuation_targets, step
from voxevo.tasks import T_MAX
from voxevo.terrain import BRIDGE_SPAN_END, BRIDGE_SPAN_START, make_bridge_terrain, make_flat_terrain

from oracles import (
    kernel_tables,
    reference_build_worlds,
    reference_contact_forces,
    reference_set_actuation_targets,
    reference_spring_forces,
    reference_step,
    reference_strip,
    reference_strip_rows,
    row_worlds,
)
from test_golden import TRAJECTORY_SHA256, golden_pairs, trajectory_digest
from test_sim_core import sunk_into_the_strip

# every table a step or the target setter writes
WRITTEN = ("pos", "vel", "spring_current_rest", "spring_target_rest", "clamped_actions")
SRC = str(Path(voxevo.__file__).resolve().parent.parent)


def assert_same_written(kernel, oracle, t):
    """Every table in ``WRITTEN`` holds the same bytes in both states after step ``t + 1``."""
    ours, theirs = kernel_tables(kernel, *WRITTEN), kernel_tables(oracle, *WRITTEN)
    for name in WRITTEN:
        assert ours[name].tobytes() == theirs[name].tobytes(), f"{name} after step {t + 1}"


def twin_unions(pairs, terrain):
    """Two equal unions of the pairs' worlds, one for each engine, and their
    controllers."""
    bodies = [m for m, _ in pairs]
    return build_worlds(bodies, terrain), build_worlds(bodies, terrain), [c for _, c in pairs]


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
        assert_same_written(kernel, oracle, t)
    assert kernel.sim_time == oracle.sim_time == T_MAX


def test_strip_contact_is_the_reference_bit_for_bit():
    # three robots stand on the span, sunk into the strip and moving: the
    # golden robots barely reach the span in an episode, these press on it
    # from the first step. The springs' and the contacts' sums alone match
    # their references too
    kernel, _ = sunk_into_the_strip()
    oracle, _ = sunk_into_the_strip()
    for t in range(200):
        assert step(kernel).tolist() == reference_step(oracle).tolist() == []
        assert_same_written(kernel, oracle, t)
        assert sim_core.spring_forces(kernel).tobytes() == reference_spring_forces(oracle).tobytes()
        assert sim_core.contact_forces(kernel).tobytes() == reference_contact_forces(oracle).tobytes()


@pytest.mark.parametrize("fling", [np.nan, -2e6], ids=["nan", "flung"])
@pytest.mark.parametrize("environment", ["walker", "bridgewalker"])
def test_a_diverging_world_is_named_on_the_reference_step(environment, fling):
    # the middle world's velocity is spoiled: both engines name it once, on
    # the same step, and its neighbours step on as they do alone. Parking
    # returns its rest lengths to their build-time values, so a NaN command
    # leaves nothing that names it again. The spoiled world's own bytes are
    # compared only once it is parked: its NaN values may carry another
    # sign bit than numpy's, which no result reads
    pairs, terrain = golden_pairs(environment, 5, "modular", neighbours=1)
    kernel, oracle, controllers = twin_unions(pairs, terrain)
    alone = [build_worlds([m], terrain) for m, _ in pairs]
    alone_controllers = [[c] for _, c in pairs]
    for state in (kernel, oracle):
        state.vel[row_worlds(state) == 1] = fling
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
            assert_same_written(kernel, oracle, t)
        for w in (0, 2):
            act(alone[w], alone_controllers[w], t)
            assert step(alone[w]).size == 0
            rows = slice(kernel.starts["mass"][w], kernel.starts["mass"][w + 1])
            assert kernel.pos[rows].tobytes() == alone[w].pos.tobytes()
            assert kernel.vel[rows].tobytes() == alone[w].vel.tobytes()
    assert len(named) == 1 and named[0][1] == [1]
    if np.isnan(fling):
        assert named[0][0] == 0


def test_two_unions_advanced_at_once_end_as_one_after_the_other():
    # the kernel keeps no mutable global state: two unions, each with its
    # own controller table, advanced to T_MAX on two threads at once end
    # with the bytes they end with when advanced one after the other
    terrain = make_bridge_terrain((5, 5))
    rng = np.random.default_rng([5, 26])
    batches = [[(random_morphology(5, 5, rng), init_controller("modular", rng)) for _ in range(4)] for _ in range(2)]

    def unions():
        made = []
        for pairs in batches:
            state = build_worlds([m for m, _ in pairs], terrain)
            controller_table([c for _, c in pairs], state)
            made.append(state)
        return made

    alone = unions()
    for state in alone:
        sim_core.advance(state, T_MAX, control=True)
    together = unions()
    barrier = threading.Barrier(len(together), timeout=60)

    def advance(state):
        barrier.wait()
        sim_core.advance(state, T_MAX, control=True)

    threads = [threading.Thread(target=advance, args=(union,)) for union in together]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert [state.sim_time for state in together + alone] == [T_MAX] * 4
    for state, reference in zip(together, alone):
        assert state.pos.tobytes() == reference.pos.tobytes()
        assert state.vel.tobytes() == reference.vel.tobytes()


# --- building worlds ------------------------------------------------------------

TERRAINS = {"walker": make_flat_terrain(), "bridgewalker": make_bridge_terrain((7, 7)), "none": None}


# every table of the kernel's Table, each of which assert_same_state
# compares: all the kernel reads or writes, the scratch rows included, and
# every table of which a state holds a view
KERNEL_TABLES = (
    "pos", "vel", "spring_current_rest", "spring_target_rest", "clamped_actions",
    "mass", "inv_mass", "spring_i", "spring_j", "spring_k", "spring_c", "spring_rest",
    "edge_ids", "edge_limit", "edge_slot", "edge_count", "act_world", "vox_corners", "diagonal_sides", "diagonal_ids",
    "robot_ids", "robot_world", "bridge_top", "starts", "end_starts", "ends",
    "pinned", "is_robot", "vox_cells", "vox_h_edges", "vox_v_edges", "vox_shear",
    "actuator_cells", "actuator_springs", "com_weights",
    "spring_d", "spring_f", "ground", "chain_x", "net", "new_pos", "bad",
    "contact_ids", "contact_w", "sums",
)


def state_views(state) -> dict:
    """Every array a state holds, by its name, each row of its starts as
    ``starts[kind]``; its buffer left out."""
    views = {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray) and name != "buffer"}
    return {**views, **{f"starts[{kind}]": row for kind, row in state.starts.items()}}


def assert_same_state(state, reference):
    """Every table of a built union, read where its kernel Table points, and
    the Table's sizes equal the numpy reference's (``reference_tables``),
    byte for byte and dtype for dtype; and every array the state holds is a
    view of the union's buffer at its table."""
    tables, sizes = reference
    assert set(KERNEL_TABLES) == set(type(state.kernel_table).pointees) == set(tables)
    ours = kernel_tables(state)
    for name in KERNEL_TABLES:
        assert (ours[name].dtype, ours[name].shape) == (tables[name].dtype, tables[name].shape), name
        assert ours[name].tobytes() == tables[name].tobytes(), name
    assert {name: getattr(state.kernel_table, name) for name in sizes} == sizes
    rows = {f"starts[{kind}]": row for kind, row in zip(state.starts, ours["starts"])}
    for name, view in state_views(state).items():
        table = rows[name] if name in rows else ours[name]
        assert view.base is state.buffer, name
        assert view.__array_interface__ == table.__array_interface__, name


@pytest.mark.parametrize("setting", list(TRAJECTORY_SHA256), ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_the_golden_unions_build_as_the_reference(setting):
    pairs, terrain = golden_pairs(*setting, neighbours=1)
    bodies = [m for m, _ in pairs]
    union = build_worlds(bodies, terrain)
    assert_same_state(union, reference_build_worlds(bodies, terrain))
    assert (union.morphologies, union.terrain, union.sim_time) == (bodies, terrain, 0)


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


@pytest.mark.parametrize("terrain", list(TERRAINS.values()), ids=list(TERRAINS))
def test_a_shared_actuated_edge_and_a_voxel_without_one_build_as_the_reference(terrain):
    # two horizontal actuators, one above the other, share their middle
    # edge, which both then drive; the rigid voxels beside them hold no
    # actuated edge, so their diagonals never follow one. A world without
    # actuators sits between two with them
    bodies = [Morphology([[3, 1], [3, 1]]), Morphology([[1, 2]]), Morphology([[3, 1], [3, 1]])]
    union = build_worlds(bodies, terrain)
    assert_same_state(union, reference_build_worlds(bodies, terrain))
    assert kernel_tables(union, "edge_count")["edge_count"].tolist() == [2, 1, 1] * 2
    assert union.kernel_table.diagonals == 4 < union.kernel_table.voxels == 10


# sha256 of the settled strip's positions for each (span_start, span_end,
# material), recorded while the kernel built the strip in a mode of its own
SETTLED_STRIP_SHA256 = {
    (8, 52, ELASTIC): "4e103e2c2ec2d1fb8dc9c8361be9e571bc68bc7901a923e038242f4231689159",
    (8, 52, RIGID): "07cc32fb0dd1be976907d2fb52d7496cdb571bf0b795e09b63a307a432e999ea",
    (3, 9, ELASTIC): "2897eb6d4db3be42c6734f72428d2d0eb6495d0532a26da2abd361cf3ca0efc4",
    (3, 9, RIGID): "806c1f9a45c63b900c7f845f88dd51456d6eb90d103f6db625e007b663c4e123",
}


def test_the_settled_strip_is_the_reference_strip():
    # the strip the static solve relaxes is an ordinary one-row body, alone
    # on no terrain; the part a bridge world appends is its rows with its
    # pad junctions pinned and its top corners as the chain, as the numpy
    # strip makes them, at the positions the solve has always settled to
    for span, digest in SETTLED_STRIP_SHA256.items():
        strip = sim_core._bare_strip(*span)
        assert_same_state(strip, reference_strip(*span))
        assert (strip.morphologies, strip.terrain, strip.kernel_table.terrain) == ([], None, 0)
        settled, rows = sim_core._settled_strip(*span), reference_strip_rows(*span)
        assert list(settled) == list(sim_core._PART_TABLES)
        for name, table in settled.items():
            if name == "pos":
                assert hashlib.sha256(table.tobytes()).hexdigest() == digest, span
                assert table[rows["pinned"]].tobytes() == rows["pos"][rows["pinned"]].tobytes()
            else:
                assert (table.dtype, table.shape) == (rows[name].dtype, rows[name].shape), name
                assert table.tobytes() == rows[name].tobytes(), name


def bare_and_built():
    """A W5 and a B7 union of random bodies, and the bare strip."""
    rng = np.random.default_rng(27)
    return [
        build_worlds([random_morphology(5, 5, rng) for _ in range(4)], TERRAINS["walker"]),
        build_worlds([random_morphology(7, 7, rng) for _ in range(3)], TERRAINS["bridgewalker"]),
        sim_core._bare_strip(int(BRIDGE_SPAN_START), int(BRIDGE_SPAN_END), ELASTIC),
    ]


@pytest.mark.parametrize("state", bare_and_built(), ids=["W5", "B7", "bare-strip"])
def test_every_table_lies_in_the_union_s_one_buffer(state):
    # every pointer of the kernel's Table points into the state's buffer,
    # no two tables overlap, a gap follows each, and every array the state
    # holds is a view of the buffer where the Table points
    tables = kernel_tables(state)  # each asserted inside the buffer
    assert set(tables) == set(type(state.kernel_table).pointees)
    spans = sorted((getattr(state.kernel_table, name), table.nbytes) for name, table in tables.items())
    for (start, nbytes), (following, _) in zip(spans, spans[1:]):
        assert start + nbytes + 64 <= following
    views = state_views(state)
    assert all(view.base is state.buffer for view in views.values())
    for name, view in views.items():
        if name in tables:
            assert view.__array_interface__ == tables[name].__array_interface__, name


def test_a_build_binds_only_its_bodies(monkeypatch):
    # the engine's constants and the strip's tables are bound once per
    # terrain; a build binds its bodies' cells and grid, and reads one
    # address for the union it makes
    bound = []
    original = sim_core._point

    def counting(struct, arrays):
        bound.extend(arrays)
        original(struct, arrays)

    rng = np.random.default_rng(8)
    for terrain in TERRAINS.values():
        build_worlds([random_morphology(5, 5, rng)], terrain)  # the terrain's blueprint is made by now
        monkeypatch.setattr(sim_core, "_point", counting)
        build_worlds([random_morphology(5, 5, rng) for _ in range(17)], terrain)
        monkeypatch.undo()
        assert sorted(bound) == ["cells", "grid"]
        bound.clear()


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
            controller_table([init_controller(variant, rng) for _ in range(state.num_worlds)], state)
            sim_core.advance(state, 100, control=True)
            lines.append(hashlib.sha256(state.pos.tobytes() + state.vel.tobytes()).hexdigest())
    return "\n".join(lines)


def test_the_kernel_is_clean_under_address_sanitizer(tmp_path):
    # the builder writes tables whose sizes its own counting pass sets, all
    # in one buffer: a kernel built with AddressSanitizer poisons the gap
    # after each table, so it aborts on any access out of a table, and it
    # must give the bits of the kernel this process runs
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


def test_a_build_removes_the_libraries_it_replaces(tmp_path, monkeypatch):
    # the libraries of older sources or flags go once the new one is in
    # place, so the cache holds one library; another builder's half-written
    # file is left alone
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = ["_kernel-0000000000000000.so", "_kernel-1111111111111111.so"]
    partial = "_kernel-2222222222222222.abc123.partial"
    for name in (*stale, partial):
        (cache / name).write_bytes(b"stale")
    monkeypatch.setattr(sim_core, "_KERNEL_DIR", cache)
    assert sim_core._load_kernel().vx_run
    built = [path.name for path in cache.glob("*.so")]
    assert len(built) == 1 and built[0] not in stale
    assert sorted(path.name for path in cache.iterdir()) == sorted([*built, partial])


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


@pytest.mark.parametrize("cflags", [(), ("-DVX_DEFAULT_CLONE_ONLY",)], ids=["default", "baseline-clones-only"])
def test_the_kernel_compiles_without_warnings(tmp_path, cflags):
    # every warning GCC's -Wall -Wextra can raise is an error here, so the
    # growing kernel stays warning-free, and so does the build of its
    # baseline clones alone that test_the_kernel_clones_agree runs
    command = [sim_core._COMPILER, *sim_core._CFLAGS, *cflags, "-Wall", "-Wextra", "-Werror"]
    command += ["-o", str(tmp_path / "kernel.so"), str(sim_core._KERNEL_SOURCE), "-lm"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


STRUCTS = ("Table", "Brain", "Builder")


@pytest.fixture(scope="module")
def compiled_layout(tmp_path_factory) -> dict:
    """Each kernel struct's layout as the compiler lays it out: its size,
    then each field's name, offset and kind (int64, double or pointer), in
    the order of ``sim_core._struct``'s mirror. A probe built by
    ``_COMPILER`` includes ``_kernel.c`` and prints them."""
    lines = []
    for name in STRUCTS:
        lines.append(f'printf("{name} %zu\\n", sizeof({name}));')
        for field, _ in sim_core._struct(name)._fields_:
            kind = f'_Generic((({name} *)0)->{field}, int64_t: "int64", double: "double", default: "pointer")'
            lines.append(f'printf("{name} {field} %zu %s\\n", offsetof({name}, {field}), {kind});')
    directory = tmp_path_factory.mktemp("layout")
    probe = directory / "probe.c"
    probe.write_text(
        f'#include <stddef.h>\n#include <stdio.h>\n#include "{sim_core._KERNEL_SOURCE}"\n'
        "int main(void)\n{\n" + "\n".join(lines) + "\nreturn 0;\n}\n"
    )
    command = [sim_core._COMPILER, "-o", str(directory / "probe"), str(probe), "-lm"]
    built = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    printed = subprocess.run([str(directory / "probe")], capture_output=True, text=True, timeout=60, check=True)
    layout = {name: [] for name in STRUCTS}
    for line in printed.stdout.splitlines():
        name, *rest = line.split()
        layout[name].append(rest)
    return layout


@pytest.mark.parametrize("struct", STRUCTS)
def test_the_ctypes_mirrors_are_the_kernel_structs(struct, compiled_layout):
    # the kernel reads a table by the offsets of its C struct: a mirror
    # that names, orders, types or places one field otherwise hands it
    # another array
    mirror = sim_core._struct(struct)
    kinds = {ctypes.c_int64: "int64", ctypes.c_double: "double", ctypes.c_void_p: "pointer"}
    expected = [[str(ctypes.sizeof(mirror))]]
    expected += [[field, str(getattr(mirror, field).offset), kinds[ctype]] for field, ctype in mirror._fields_]
    assert compiled_layout[struct] == expected


def test_the_loader_declares_every_kernel_export():
    # every function the library exports, cloned or not, has its argument
    # and result types declared when the kernel loads
    lib = sim_core._kernel()
    listed = subprocess.run(["nm", "-D", "--defined-only", lib._name], capture_output=True, text=True, timeout=60)
    exported = re.findall(r" [Ti] (vx_\w+)$", listed.stdout, flags=re.M)
    assert len(exported) == len(set(exported)) == 9
    assert [name for name in exported if getattr(lib, name).argtypes is None] == []


def test_a_struct_declaration_python_cannot_mirror_fails(monkeypatch):
    # a field of a type or form that the parser does not map is an error
    # naming the struct and the declaration, never a guessed layout
    source = "typedef struct {\n    int64_t rows;\n    float  weights[4];\n} Odd;\n"
    monkeypatch.setattr(sim_core, "_kernel_source", lambda: (source.encode(), source))
    with pytest.raises(TypeError, match=r"Odd declares `float weights\[4\]`"):
        sim_core._struct.__wrapped__("Odd")


def test_a_kernel_function_defined_on_a_line_the_loader_does_not_read_fails(monkeypatch):
    # such a function would load with no argument types, and ctypes would
    # pass its pointers truncated: it is an error naming the line, raised
    # before the kernel is built
    source = "VX_CLONES VX_VECTOR void vx_presum(const Brain *b, const double *material)\n{\n}\n"
    monkeypatch.setattr(sim_core, "_kernel_source", lambda: (source.encode(), source))
    monkeypatch.setattr(sim_core, "_build_kernel", lambda path: pytest.fail("the kernel was built"))
    line = r"`VX_CLONES VX_VECTOR void vx_presum\(const Brain \*b, const double \*material\)`"
    with pytest.raises(TypeError, match=line):
        sim_core._load_kernel()


@pytest.mark.parametrize(
    "field, array",
    [("spring_i", np.zeros(4)), ("pos", np.zeros((4, 2), dtype=bool)), ("pos", np.zeros((4, 4))[:, ::2])],
    ids=["float64-in-int64_t", "bool-in-double", "strided"],
)
def test_the_binder_refuses_an_array_the_kernel_would_misread(field, array):
    table = sim_core._struct("Table")()
    with pytest.raises(TypeError, match=f"Table.{field} points to"):
        sim_core._point(table, {field: array})
    assert getattr(table, field) is None  # nothing was bound


# --- the kernel on every CPU -------------------------------------------------

MODULAR = [setting for setting in TRAJECTORY_SHA256 if setting[2] == "modular"]


def evidence_script(settings, cache_dir: Path | None = None, cflags: tuple = ()) -> str:
    """A fresh interpreter's program: print ``evidence(settings)``, with the
    kernel built with ``cflags`` added into ``cache_dir`` if one is given."""
    script = "import sys\nfrom pathlib import Path\nfrom voxevo import sim_core\n"
    if cache_dir is not None:
        script += f"sim_core._KERNEL_DIR = Path({str(cache_dir)!r})\n"
        script += f"sim_core._CFLAGS = sim_core._CFLAGS + {tuple(cflags)!r}\n"
    script += f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
    script += f"import test_kernel\nprint(test_kernel.evidence({list(settings)!r}))\n"
    return script


def evidence(settings) -> str:
    """The golden digests of ``settings``, and the hex bytes of a stepped B7
    union's modular commands, one line each."""
    lines = [trajectory_digest(*setting) for setting in settings]
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
    out = run_script(evidence_script(MODULAR), **env).splitlines()
    assert out[: len(MODULAR)] == [TRAJECTORY_SHA256[setting] for setting in MODULAR]


def test_the_kernel_clones_agree(tmp_path):
    # the kernel's baseline clones alone (VX_DEFAULT_CLONE_ONLY), the step's
    # loops and the network's, built into a cache of their own, give the
    # commands and every golden digest, fixed and modular, of the clones
    # this CPU dispatches to. A CPU without AVX-512 runs these clones, and
    # nothing else runs them on one with it
    settings = list(TRAJECTORY_SHA256)
    out = run_script(evidence_script(settings, tmp_path / "cache", ("-DVX_DEFAULT_CLONE_ONLY",)))
    assert [path.suffix for path in (tmp_path / "cache").iterdir()] == [".so"]
    assert out == evidence(settings)
    assert out.splitlines()[: len(settings)] == [TRAJECTORY_SHA256[setting] for setting in settings]
