"""Locomotion terrain descriptions and factories.

Two terrains: a flat rigid floor, and a "bridge" where the middle of the
course is a single-voxel-thick strip of elastic voxels pinned at both pads
that sags and swings under load. The strip itself is built by the physics
engine as part of the world.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import materials

FLAT_LENGTH = 60.0
FLAT_SPAWN_X = 1.0
FLAT_FINISH_X = 60.0

BRIDGE_SPAN_START = 8.0
BRIDGE_SPAN_END = 52.0
BRIDGE_FINISH_X = 58.0

ENVIRONMENTS = {"walker": "W", "bridgewalker": "B"}  # terrain_by_name's names, each with its settings' letter


@dataclass(frozen=True)
class TerrainSpec:
    kind: str  # "flat" | "bridge"
    total_length: float
    spawn_x: float
    finish_x: float
    span_start: float | None = None
    span_end: float | None = None
    bridge_material: int = materials.ELASTIC

    def __post_init__(self):
        if self.kind not in ("flat", "bridge"):
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        if not (self.spawn_x < self.finish_x <= self.total_length):
            raise ValueError("terrain requires spawn_x < finish_x <= total_length")
        if self.kind == "bridge":
            if self.span_start is None or self.span_end is None:
                raise ValueError("bridge terrain requires span_start and span_end")
            if not (0 <= self.span_start < self.span_end <= self.total_length):
                raise ValueError("bridge span must lie inside the course")
            if not (float(self.span_start).is_integer() and float(self.span_end).is_integer()):
                raise ValueError("bridge span must start and end on whole voxels: its strip is built of unit voxels")
            if self.bridge_material not in materials.EDGE_STIFFNESS:
                raise ValueError(f"bridge_material must be a voxel material, one of {sorted(materials.EDGE_STIFFNESS)}")


def make_flat_terrain(morphology_space: tuple[int, int] = (5, 5)) -> TerrainSpec:
    """Flat rigid ground at y=0 over the whole course."""
    return TerrainSpec(
        kind="flat",
        total_length=FLAT_LENGTH,
        spawn_x=FLAT_SPAWN_X,
        finish_x=FLAT_FINISH_X,
    )


def make_bridge_terrain(morphology_space: tuple[int, int] = (5, 5)) -> TerrainSpec:
    """Rigid start/end pads with a compliant elastic strip between them."""
    _, w = morphology_space
    if FLAT_SPAWN_X + w > BRIDGE_SPAN_START:
        raise ValueError(f"a {w}-wide body does not fit on the start pad")
    return TerrainSpec(
        kind="bridge",
        total_length=FLAT_LENGTH,
        spawn_x=FLAT_SPAWN_X,
        finish_x=BRIDGE_FINISH_X,
        span_start=BRIDGE_SPAN_START,
        span_end=BRIDGE_SPAN_END,
    )


def terrain_by_name(name: str, morphology_space: tuple[int, int] = (5, 5)) -> TerrainSpec:
    if name == "walker":
        return make_flat_terrain(morphology_space)
    if name == "bridgewalker":
        return make_bridge_terrain(morphology_space)
    raise ValueError(f"unknown environment {name!r} (expected one of {tuple(ENVIRONMENTS)})")
