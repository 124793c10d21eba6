"""Deterministic 2D mass-spring engine for voxel soft bodies.

Every voxel is a unit square of four corner point masses joined by four
edge springs and two diagonal shear springs; neighbouring voxels share
corners and edge springs. Actuator voxels drive the rest length of their
two edge springs (horizontal edges for horizontal actuators, vertical
edges for vertical ones) toward a commanded multiple of the build-time
rest length, rate-limited per simulation step. Integration is
semi-implicit Euler; ground contact is a penalty normal force plus
Coulomb-capped friction.

World layout: x grows to the right, y up, the walkable surface at y=0.
A WorldState holds one world or a disjoint union of several that step
together; no table joins two worlds, so one world never affects another.

The episode's inner loop runs in C: ``_kernel.c`` holds the actuation
advance, the spring forces, ground and strip contact, each mass's force
sum, gravity, integration and the divergence test, the loop of steps
around them, the actuation targets (``set_actuation_targets``) and both
controllers: the fixed alternation, and the modular network with its
observation fill (``control.controller_table``). ``advance`` is one call
into it that steps until a world may have ended, querying, with control,
the state's controller table at every control step, and names the worlds
that the kernel table's ``bad`` row flags as diverged; ``step`` is its
one-step case. The kernel also builds a batch's worlds, every table
of a union in one zeroed buffer (``build_worlds``): one call sizes the
union, and one lays out, fills and points its ``Table`` at every table,
the settled strip appended to every bridge world, and derives the
columns, the tables only the kernel reads and the zeroed scratch rows from
the rows. Python checks the bodies, allocates that buffer and makes each
state from views of the tables it reads (``WorldState``), builds each
batch's controller table, with its state's observation windows, solves
the strip's statics once per span, parks worlds and keeps each episode's
books (``tasks.run_episodes``, which runs a batch as one union per CPU,
all at once: the kernel keeps no mutable global state, and a call into it
holds no GIL). The kernel does numpy's operations in numpy's order, so the
physics and the built tables give the bits the numpy code gave
(``tests/oracles.py`` keeps that code as the reference it is tested
against). Its step loops and the modular
network are compiled twice, for AVX-512 and the baseline, and the CPU
picks the clone; both give the same bits. The network has numerics of
its own: a fixed summation order, and ``tanh`` and the logistic built on
the kernel's own ``exp``, with no libm, numpy or BLAS call (``_kernel.c``
sets them out). The system C compiler (``_COMPILER``) builds the kernel
on first use with ``_CFLAGS``: ``-O2 -ffp-contract=off -fno-math-errno``
and never ``-ffast-math`` or ``-march=native``, either of which could
move bits. The library is cached in ``_KERNEL_DIR``, beside this file,
under a name that carries a hash of the source and the flags, so a cache
hit only hashes the source and loads the file. Python declares none of
the kernel's interface a second time: each struct it fills (``_struct``)
and each function's types (``_load_kernel``) are read from ``_kernel.c``'s
text, read once per process, and a struct's pointers are bound only to
C-contiguous arrays of the C type they point to (``_point``); a build binds
its bodies alone, as each terrain's constants, gravity among them, and
strip are bound once (``_blueprint``). There is no fallback engine: a
second step path would be a second set of numerics to keep equal, so a
kernel that cannot be built is an error that names the compiler, the
cache directory and the compiler's complaint.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import materials
from .morphology import Morphology, simulability_report, InvalidMorphologyError
from .terrain import TerrainSpec

if TYPE_CHECKING:
    from .control import ControllerTable

# Version of the episode numerics. Bump it with any change that can move a
# simulated trajectory or fitness by even one ulp: cached evidence, run
# manifests and checkpoints carry it, so results are never served or mixed
# across engines. 5: the modular network runs in the kernel, with its own
# tanh and exp and a fixed summation order, the same bits in every clone.
ENGINE_VERSION = 5

# Integration and units
DT = 0.005                 # seconds per simulation step
STEPS_PER_ACTION = 5       # controller queried every 5th step
GRAVITY = 9.81
CORNER_MASS_PER_VOXEL = 0.25

# Actuation
ACTION_LOW = 0.6
ACTION_HIGH = 1.6
# Rest lengths move toward their commanded target by at most this fraction
# of the build-time rest length per sim step. 0.2 lets a full-range command
# complete within one control period (5 steps), so maximal alternation
# actually reaches the extremes while still ramping gradually.
ACTUATION_RATE = 0.2

# Damping and contact
DAMPING_RATIO = 0.05       # per-spring damping as a fraction of critical
CONTACT_STIFFNESS = 10_000.0
CONTACT_DAMPING = 50.0
FRICTION_MU = 0.5

DIVERGENCE_LIMIT = 1e6

# Bridge-strip statics: the Newton solve stops once every free strip mass
# accelerates by less than STRIP_TOLERANCE, and raises after
# STRIP_NEWTON_ITERATIONS; STRIP_FD_STEP is its finite-difference step.
STRIP_TOLERANCE = 1e-9
STRIP_NEWTON_ITERATIONS = 50
STRIP_FD_STEP = 1e-6


# The compiled kernel: its source, the command that builds it, and the
# directory that caches the built library
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_DIR = Path(__file__).with_name("_kernel_build")
_COMPILER = "cc"
# -ffp-contract=off keeps every multiply and add its own rounded operation.
# -fno-math-errno lets sqrt compile to the square-root instruction, in
# vectors too; it moves no bit, as all it drops is sqrt setting errno on a
# negative operand, which nothing reads.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

# The kernel's scalar C types, and the numpy dtypes that each C type a
# pointer may point to accepts
_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
_POINTEES = {
    "double": (np.dtype(np.float64),),
    "int64_t": (np.dtype(np.int64),),
    "int8_t": (np.dtype(np.int8),),
    "uint8_t": (np.dtype(np.uint8), np.dtype(np.bool_)),
}


class KernelBuildError(RuntimeError):
    """The compiled kernel could not be built."""


@lru_cache(maxsize=None)
def _kernel_source() -> tuple[bytes, str]:
    """``_kernel.c``'s bytes, read once per process, and its text without
    comments, from which its interface is read."""
    source = _KERNEL_SOURCE.read_bytes()
    return source, re.sub(r"/\*.*?\*/", "", source.decode(), flags=re.S)


def _declared(declaration: str, owner: str) -> list[tuple[str, type, str]]:
    """Each name that one C declaration of ``owner``'s, ``[const] type name``
    or ``[const] type *name`` with more names after commas, declares: with
    its ctypes type, ``c_void_p`` for any pointer, and its C type, the one
    it points to for a pointer. Any other form is an error."""
    match = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(\*?\s*\w+\s*(?:,\s*\*?\s*\w+\s*)*)", declaration)
    names = re.findall(r"(\*?)\s*(\w+)", match[2]) if match else []
    if not names or not all(star or match[1] in _SCALARS for star, _ in names):
        raise TypeError(f"_kernel.c's {owner} declares `{' '.join(declaration.split())}`, which Python cannot mirror")
    return [(name, ctypes.c_void_p if star else _SCALARS[match[1]], match[1]) for star, name in names]


@lru_cache(maxsize=None)
def _struct(name: str) -> type:
    """``_kernel.c``'s ``typedef struct {...} name;`` as a ctypes structure,
    field for field, with the C type that each pointer field points to in
    its ``pointees``; ``_point`` binds those fields."""
    body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", _kernel_source()[1]).group(1)
    members = [member for declaration in filter(str.strip, body.split(";")) for member in _declared(declaration, name)]
    pointees = {member: base for member, ctype, base in members if ctype is ctypes.c_void_p}
    return type(name, (ctypes.Structure,), {"_fields_": [member[:2] for member in members], "pointees": pointees})


def _point(struct: ctypes.Structure, arrays: dict) -> None:
    """Point each of ``struct``'s pointer fields named in ``arrays`` at its
    array's data. An array must be C-contiguous, of a dtype that the C type
    the field points to accepts (``_POINTEES``); any other is a TypeError."""
    pointees = type(struct).pointees
    for name, array in arrays.items():
        if array.dtype not in _POINTEES.get(pointees[name], ()) or not array.flags.c_contiguous:
            raise TypeError(
                f"the kernel's {type(struct).__name__}.{name} points to {pointees[name]}: it needs a C-contiguous "
                f"array of that type, not a{'' if array.flags.c_contiguous else ' strided'} {array.dtype} one"
            )
        setattr(struct, name, array.ctypes.data)


@dataclass
class WorldState:
    """Mutable simulation state of one or more worlds, each a robot plus its
    bridge strip, if any.

    ``build_worlds`` makes one disjoint union of several worlds that steps
    them all at once; ``build_world`` makes a union of one. Every
    per-element table is concatenated world by world: world ``w`` owns the
    rows ``starts[kind][w]:starts[kind][w + 1]`` of each kind ("mass",
    "spring", "vox", "act", "top"), its robot's masses first. Index tables
    hold union ids, so no spring, contact or sum ever joins two worlds. A
    world that ``park`` has made inert stays in the union and keeps
    stepping with it, but it no longer moves, exerts a force or touches the
    ground.

    Every table of a union lies in its one buffer, which the kernel lays
    out, fills and points its ``Table`` at (``_build``): the row tables, the
    columns derived from them, the tables only the kernel reads and its
    scratch rows. A state holds that buffer, the Table, and a view of each
    table that ``voxevo`` reads, under the Table's name for it; the kernel
    writes those tables in place, so no view is ever rebound. Its other
    tables are read where the Table points (``tests/oracles.py``'s
    ``kernel_tables``).
    """

    # the masses, (n,) or (n, 2)
    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    inv_mass: np.ndarray       # 1/mass; zero for pinned masses

    # the springs, (s,)
    spring_i: np.ndarray       # first endpoint index
    spring_j: np.ndarray
    spring_k: np.ndarray
    spring_rest: np.ndarray    # build-time rest lengths
    spring_current_rest: np.ndarray
    spring_target_rest: np.ndarray

    vox_cells: np.ndarray      # (v, 2) (row, column) of each robot's non-empty cells, row-major
    actuator_cells: np.ndarray  # (a, 2) (row, column) of each robot's actuator cells, row-major
    act_world: np.ndarray      # world of each active voxel

    robot_ids: np.ndarray      # robot masses, ascending
    robot_world: np.ndarray    # their worlds
    com_weights: np.ndarray    # their mass fractions within their robot

    net: np.ndarray            # (n, 2) the kernel's last force sums
    bad: np.ndarray            # (worlds,) nonzero for the worlds that diverged on the last step ``advance`` took

    starts: dict[str, np.ndarray] = field(repr=False)
    morphologies: list[Morphology]  # one per world; empty for the bridge strip alone
    terrain: TerrainSpec | None
    buffer: np.ndarray = field(repr=False)                # the union's one allocation
    kernel_table: ctypes.Structure = field(repr=False)    # the kernel's Table, pointing into it
    sim_time: int = 0
    # the ControllerTable that control.controller_table last built for this state
    controller: ControllerTable | None = field(default=None, repr=False)
    kernel_address: int = field(init=False, repr=False)  # the table's address, what each kernel call takes

    def __post_init__(self):
        self.kernel_address = ctypes.addressof(self.kernel_table)

    @property
    def num_worlds(self) -> int:
        return len(self.starts["mass"]) - 1

    @property
    def num_masses(self) -> int:
        return self.pos.shape[0]

    @property
    def num_springs(self) -> int:
        return self.spring_i.shape[0]

    def robot_com_x(self) -> np.ndarray:
        """Each world's robot centre-of-mass x."""
        weighted = self.pos[:, 0][self.robot_ids] * self.com_weights
        return np.bincount(self.robot_world, weighted, minlength=self.num_worlds)

    def park(self, worlds: np.ndarray) -> None:
        """Make the worlds selected by a per-world mask inert.

        Every mass of theirs sits at the origin, at rest and immovable: their
        springs have zero length, their current and target rest lengths are
        the build-time ones again (a NaN command leaves none behind), they
        exert no force, and their masses meet no ground or strip. The other
        worlds step on exactly as before.
        """
        rows = np.repeat(worlds, np.diff(self.starts["mass"]))
        self.pos[rows] = 0.0
        self.vel[rows] = 0.0
        self.inv_mass[rows] = 0.0
        springs = np.repeat(worlds, np.diff(self.starts["spring"]))
        self.spring_current_rest[springs] = self.spring_rest[springs]
        self.spring_target_rest[springs] = self.spring_rest[springs]


# the kinds of row of ``WorldState.starts``, in the order of ``_kernel.c``'s
_KINDS = ("mass", "spring", "vox", "act", "top")
# the tables of the part that every world of a bridge union appends after its body
_PART_TABLES = ("pos", "mass", "pinned", "spring_i", "spring_j", "spring_k", "spring_rest", "bridge_top")
# edge stiffness by material code; zero for empty cells, which make no springs
_EDGE_STIFFNESS = np.array([materials.EDGE_STIFFNESS.get(code, 0.0) for code in range(materials.NUM_CODES)])
# the dtype of a state's view of a table, by the C type the table holds
_VIEW_DTYPES = {"double": np.dtype(np.float64), "int64_t": np.dtype(np.int64)}


@lru_cache(maxsize=8)
def _blueprint(terrain: TerrainSpec | None) -> tuple[ctypes.Structure, ctypes.Structure, dict]:
    """The ``Builder`` and the ``Table`` that every build on ``terrain``
    copies, with the engine's constants set and, on a bridge, the settled
    strip's tables bound as the part each world appends; and the arrays they
    point to, held so that none is freed. Made once per terrain, so that a
    build binds only its bodies."""
    bridge = terrain is not None and terrain.kind == "bridge"
    arrays = {"stiffness": _EDGE_STIFFNESS}
    builder = _struct("Builder")(
        actuator_h=materials.ACTUATOR_H,
        actuator_v=materials.ACTUATOR_V,
        shear=materials.SHEAR_STIFFNESS_FACTOR,
        corner_mass=CORNER_MASS_PER_VOXEL,
        damping_ratio=DAMPING_RATIO,
        actuation_rate=ACTUATION_RATE,
    )
    if bridge:
        strip = _settled_strip(int(terrain.span_start), int(terrain.span_end), terrain.bridge_material)
        arrays.update((f"part_{name}", strip[name]) for name in _PART_TABLES)
        builder.part_masses, builder.part_springs, builder.part_top = (
            strip[name].shape[0] for name in ("mass", "spring_i", "bridge_top")
        )
    _point(builder, arrays)
    table = _struct("Table")(
        terrain=0 if terrain is None else 2 if bridge else 1,
        steps_per_action=STEPS_PER_ACTION,
        dt=DT,
        gravity=GRAVITY,
        stiffness=CONTACT_STIFFNESS,
        damping=CONTACT_DAMPING,
        mu=FRICTION_MU,
        limit=DIVERGENCE_LIMIT,
        span_start=terrain.span_start if bridge else 0.0,
        span_end=terrain.span_end if bridge else 0.0,
        action_low=ACTION_LOW,
        action_high=ACTION_HIGH,
    )
    return builder, table, arrays


def _build(cells: np.ndarray, grid, morphologies, terrain, left: float, ground: float) -> WorldState:
    """The union of worlds on ``terrain`` (its ``_blueprint``) whose world
    ``w`` holds body ``cells[grid[w]]``, an (h, w) grid of material codes,
    placed with its leftmost corner at x = ``left`` and its lowest at
    y = ``ground``, then on a bridge the settled strip. ``_kernel.c`` sets
    out the numbering.

    Two kernel calls: ``vx_count`` sizes the union, and ``vx_build`` lays
    out every table in one zeroed buffer, fills them and points the Table at
    them. A build binds only its bodies' cells and grid and reads one
    address more, its buffer's: the rest was bound once (``_blueprint``).
    """
    template, table, _ = _blueprint(terrain)
    builder = type(template).from_buffer_copy(template)
    builder.h, builder.w = cells.shape[1:]
    builder.worlds, builder.left, builder.ground = len(grid), left, ground
    _point(builder, {"cells": cells, "grid": np.asarray(grid, dtype=np.int64)})
    table = type(table).from_buffer_copy(table)
    kernel = _kernel()
    buffer = np.zeros(kernel.vx_count(ctypes.byref(builder), ctypes.byref(table)) // 8, dtype=np.int64)
    base = buffer.ctypes.data
    kernel.vx_build(ctypes.byref(builder), ctypes.byref(table), base)
    views = _views(table, buffer, base)
    starts = dict(zip(_KINDS, views.pop("starts")))
    return WorldState(
        **views, starts=starts, morphologies=morphologies, terrain=terrain, buffer=buffer, kernel_table=table
    )


def _views(table: ctypes.Structure, buffer: np.ndarray, base: int) -> dict:
    """A view of ``buffer``, at address ``base``, of each table of the union
    that ``voxevo`` reads, by its ``Table`` name, shaped by the Table's
    sizes."""
    n, s, v, a, r, w = table.masses, table.springs, table.voxels, table.actuators, table.robots, table.worlds
    shapes = {
        "pos": (n, 2), "vel": (n, 2), "mass": n, "inv_mass": n, "net": (n, 2),
        "spring_i": s, "spring_j": s, "spring_k": s, "spring_rest": s,
        "spring_current_rest": s, "spring_target_rest": s,
        "vox_cells": (v, 2), "actuator_cells": (a, 2), "act_world": a,
        "robot_ids": r, "robot_world": r, "com_weights": r, "bad": w, "starts": (len(_KINDS), w + 1),
    }
    pointees = type(table).pointees
    return {
        name: np.ndarray(shape, _VIEW_DTYPES[pointees[name]], buffer, getattr(table, name) - base)
        for name, shape in shapes.items()
    }


def build_worlds(morphologies, terrain: TerrainSpec | None) -> WorldState:
    """The disjoint union of one world per body, in order, on one terrain.

    Each world holds its body placed with its lowest corner resting on the
    surface (y=0) and its leftmost corner at the terrain's spawn_x (x=0
    when terrain is None), then on bridge terrain the settled strip's rows.
    Every body is checked simulable first; then the kernel numbers, places
    and joins the rows of every world and derives every other table from
    them, in one buffer (``_build``), so bodies that repeat get identical
    rows. Bodies of different shapes may share a union; a union of no body
    is refused.
    """
    morphologies = list(morphologies)
    if not morphologies:
        raise ValueError("build_worlds needs at least one body: a union of no worlds has no tables")
    index: dict[Morphology, int] = {}
    grid = [index.setdefault(m, len(index)) for m in morphologies]
    for m in index:
        ok, reason = simulability_report(m)
        if not ok:
            raise InvalidMorphologyError(reason)
    cells = np.zeros((len(index), max(m.h for m in index), max(m.w for m in index)), dtype=np.int8)
    for k, m in enumerate(index):
        cells[k, : m.h, : m.w] = m.cells  # a smaller body padded with empty cells, which build nothing
    return _build(cells, grid, morphologies, terrain, terrain.spawn_x if terrain is not None else 0.0, 0.0)


def build_world(morphology: Morphology, terrain: TerrainSpec | None) -> WorldState:
    """The world of one body on a terrain: a union of one."""
    return build_worlds([morphology], terrain)


def _bare_strip(span_start: int, span_end: int, material: int) -> WorldState:
    """The bare compliant strip, flat, alone on no terrain: a 1-voxel-thick
    row of ``material`` from x = ``span_start`` to ``span_end``, built as an
    ordinary one-row body with its top at y=0. Nothing is pinned yet, and
    it has no top chain: ``_settled_strip`` picks both out by position."""
    cells = np.full((1, 1, span_end - span_start), material, dtype=np.int8)
    return _build(cells, [0], [], None, float(span_start), -1.0)


@lru_cache(maxsize=8)
def _settled_strip(span_start: int, span_end: int, material: int) -> dict:
    """The bare strip's tables that a bridge world appends (``_PART_TABLES``)
    at its static equilibrium under gravity, their positions read-only:
    built and settled once per span. Its masses at x = ``span_start`` and
    x = ``span_end``, the pad junctions, are pinned; its top chain is its
    masses at y = 0 in id order, which for one row is x order.

    Newton's method on the free masses' coordinates, starting from the flat
    strip. The residual is each free mass's acceleration under
    ``net_forces`` plus gravity; its Jacobian is taken by central
    differences of that same residual, and each step is solved by
    ``_eliminate``, which calls no BLAS, so the strip's bytes do not depend
    on the OpenBLAS kernel. Stops once no free mass accelerates by
    ``STRIP_TOLERANCE`` or more; raises rather than return an unconverged
    strip.
    """
    strip = _bare_strip(span_start, span_end, material)
    x, y = strip.pos.T
    pinned = (x == span_start) | (x == span_end)
    tables = {"pinned": pinned, "bridge_top": np.flatnonzero(y == 0.0)}
    free = np.flatnonzero(~pinned)
    unknowns = (2 * free[:, None] + np.arange(2)).ravel()  # free coordinates in pos's flat order
    coords = strip.pos.reshape(-1)  # a view: writing it moves the strip

    def residual() -> np.ndarray:
        force = net_forces(strip)
        force[:, 1] -= GRAVITY * strip.mass
        return (force * strip.inv_mass[:, None]).reshape(-1)[unknowns]

    for _ in range(STRIP_NEWTON_ITERATIONS):
        r = residual()
        if np.abs(r).max() < STRIP_TOLERANCE:
            strip.pos.setflags(write=False)
            return {name: tables[name] if name in tables else getattr(strip, name) for name in _PART_TABLES}
        jacobian = np.empty((r.size, r.size))
        for k, u in enumerate(unknowns):
            held = coords[u]
            coords[u] = held + STRIP_FD_STEP
            ahead = residual()
            coords[u] = held - STRIP_FD_STEP
            jacobian[:, k] = ahead - residual()
            coords[u] = held
        jacobian /= 2.0 * STRIP_FD_STEP
        coords[unknowns] -= _eliminate(jacobian, r)
    raise RuntimeError(f"bridge strip did not settle in {STRIP_NEWTON_ITERATIONS} Newton iterations")


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, by Gaussian elimination without pivoting.

    Elementwise numpy only (no BLAS or LAPACK call, no reduction), so the
    result is the same on every CPU kernel. The strip's Jacobian needs no
    pivoting: it is minus the mass-scaled tangent stiffness of a stable
    structure, so none of its leading minors is zero.
    """
    m = np.concatenate([a, b[:, None]], axis=1)
    n = b.size
    for k in range(n - 1):
        m[k + 1:, k:] -= np.multiply.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    rhs = m[:, n].copy()
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = rhs[k] / m[k, k]
        rhs[:k] -= m[:k, k] * x[k]
    return x


def _build_kernel(path: Path) -> None:
    """Compile ``_KERNEL_SOURCE`` to ``path``: into a temporary file of its
    own in the same directory, then renamed into place, so a process that
    loads ``path`` never finds a half-written library, even while another
    builds it too. Once it is in place, every other library in the
    directory is removed; another builder's temporary files are left alone."""
    import subprocess
    import tempfile

    partial = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(prefix=f"{path.stem}.", suffix=".partial", dir=path.parent)
        os.close(fd)
        command = [_COMPILER, *_CFLAGS, "-o", partial, str(_KERNEL_SOURCE), "-lm"]
        done = subprocess.run(command, capture_output=True, text=True)
        complaint = (done.stderr.strip() or f"exit status {done.returncode}") if done.returncode else None
    except OSError as error:
        complaint = str(error)
    if complaint is None:
        os.replace(partial, path)
        for stale in set(path.parent.glob("_kernel-*.so")) - {path}:
            with contextlib.suppress(OSError):  # a process that loaded it keeps it mapped
                stale.unlink()
        return
    if partial is not None:
        os.unlink(partial)
    raise KernelBuildError(
        f"`{_COMPILER} {' '.join(_CFLAGS)}` could not build the simulation kernel {_KERNEL_SOURCE} "
        f"into the cache directory {path.parent}:\n{complaint}"
    )


def _load_kernel() -> ctypes.CDLL:
    """The compiled kernel, from the cache or built into it on a miss.

    Its file name carries a hash of the source and the flags, so a hit
    starts no process: it hashes the source, finds the file and loads it.
    Every ``vx_*`` function has its types declared from its definition, and
    every struct is read, so a declaration that Python cannot mirror fails
    the load (``_kernel.c``'s header sets out the forms it reads), as does,
    before any build, a ``vx_*`` function defined on a line of another form,
    which would load with no types and be passed truncated pointers.
    """
    source, code = _kernel_source()
    read = {m.start(): m.groups() for m in re.finditer(r"^(?:VX_CLONES )?(\w+) (vx_\w+)\(([^)]*)\)", code, flags=re.M)}
    for line in re.finditer(r"^\S.*\bvx_\w+\(.*$", code, flags=re.M):
        if line.start() not in read:
            raise TypeError(f"_kernel.c defines a kernel function on the line `{line[0]}`, which Python does not read")
    tag = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    path = _KERNEL_DIR / f"_kernel-{tag}.so"
    if not path.exists():
        _build_kernel(path)
    lib = ctypes.CDLL(str(path))
    for result, name, parameters in read.values():
        function = getattr(lib, name)
        function.argtypes = [ctype for parameter in parameters.split(",") for _, ctype, _ in _declared(parameter, name)]
        function.restype = None if result == "void" else _declared(f"{result} {name}", name)[0][1]
    for name in re.findall(r"typedef struct \{[^}]*\} (\w+);", code):
        _struct(name)  # every struct is read now, so a declaration Python cannot mirror fails the load
    return lib


@lru_cache(maxsize=None)
def _kernel() -> ctypes.CDLL:
    """The kernel this process steps with, loaded on first use."""
    return _load_kernel()


def _forces(state: WorldState, springs: int, contact: int) -> np.ndarray:
    """Each mass's sum of its spring terms if ``springs``, then of its
    contact terms if ``contact``, (n, 2): one call of the kernel's force
    entry."""
    _kernel().vx_forces(state.kernel_address, springs, contact)
    return state.net.copy()


def net_forces(state: WorldState) -> np.ndarray:
    """Every spring and contact force on each mass, (n, 2): the sums a step
    integrates.

    Each mass's (x, y) sum starts from +0.0 and adds its terms in a fixed
    order, the one ``np.bincount`` gave over the force table that
    ``tests/oracles.py`` builds: its ``spring_i`` ends' forces, then its
    ``spring_j`` ends' reactions, each in spring order (``spring_forces``);
    then its ground contact, then its strip contact, or for a strip mass
    the reactions for which it is a segment's left end, then those for
    which it is the right end, each in robot-mass order
    (``contact_forces``).
    """
    return _forces(state, 1, 1)


def spring_forces(state: WorldState) -> np.ndarray:
    """The Hooke + axial damping forces of the springs alone on each mass,
    (n, 2): each spring pulls its i end by (fx, fy) and its j end by the
    exact reaction (-fx, -fy), each mass's terms summed from +0.0 in
    ``net_forces``' order."""
    return _forces(state, 1, 0)


def contact_forces(state: WorldState) -> np.ndarray:
    """The contact forces alone on each mass, (n, 2), each mass's terms
    summed from +0.0 in ``net_forces``' order.

    Normal: k*depth - c*v_normal, clamped >= 0. Friction: the force that
    would cancel tangential (relative) velocity within one step, capped at
    mu * |normal|. Each robot mass takes its (ft, fn) on the rigid surface
    (the pads only, on a bridge). On bridge terrain, robot masses over the
    span contact their own world's moving top chain, each on the segment
    whose index is the number of the chain's masses that lie left of it,
    minus one, clipped to the chain. A mass that sinks into its segment
    takes (ft, fn), and the segment's ends take the reactions: -ft*u and
    -fn*u on the left end, -ft*w and -fn*w on the right, where w is the
    right end's weight and u = 1 - w the left's. A state with no terrain
    has no contact forces.
    """
    return _forces(state, 0, 1)


def advance(state: WorldState, stop: int, finish_reach: float = math.inf, control: bool = False) -> np.ndarray:
    """Step every world, in one kernel call, until the first of: a step on
    which a world diverged; a step after which some mass has
    ``!(x < finish_reach)``, NaN included; and ``state.sim_time == stop``.
    With ``control``, the kernel sets the actuation targets from the
    commands of the state's controller table (``state.controller``) at
    every control step (a multiple of STEPS_PER_ACTION), as
    ``control.compute_actions`` and ``set_actuation_targets`` would; a
    state with no table is a ValueError, raised before the kernel is
    called. Without, the targets stay as set. Each step is the one
    ``step`` describes.

    Returns a new array of the ids of the worlds that diverged on the last
    step taken, ascending (``state.bad`` flags them); it is empty if none
    did or no step was taken.
    """
    if control and state.controller is None:
        raise ValueError("advance with control needs the state's table: build it with control.controller_table")
    table = state.controller.address if control else None
    state.sim_time += _kernel().vx_run(state.kernel_address, table, state.sim_time, stop, finish_reach)
    return np.flatnonzero(state.bad)


def step(state: WorldState) -> np.ndarray:
    """One semi-implicit Euler step of every world, DT seconds long:
    ``advance`` to one step ahead, without control.

    The kernel advances the actuated rest lengths and sums every mass's
    force (``net_forces``): its spring terms, then its ground contact, then
    its strip contact or the strip's reactions. Gravity, the kernel table's
    constant (GRAVITY), is then subtracted from each y, and velocities, then
    positions, move.

    Returns the ids of the worlds that diverged, ascending, in a new array
    that is empty if none did: those with a new position that is non-finite
    or beyond DIVERGENCE_LIMIT. They keep the positions of their
    last valid step, and garbage velocities until they are parked.
    """
    return advance(state, state.sim_time + 1)


def set_actuation_targets(state: WorldState, commands: np.ndarray) -> None:
    """Set actuation targets from one command per active voxel, in one
    kernel call.

    Commands are aligned with state.actuator_cells. Out-of-range values are
    clamped into [ACTION_LOW, ACTION_HIGH] and counted per world in the
    kernel table's ``clamped_actions`` (a NaN command stays NaN and counts
    as clamped).
    A spring shared by two actuators receives the mean of the two commands.
    """
    commands = np.ascontiguousarray(commands, dtype=np.float64)
    if commands.shape != (len(state.actuator_cells),):
        raise ValueError("one command per active voxel required")
    _kernel().vx_set_targets(state.kernel_address, commands.ctypes.data)
