"""Direct-encoded voxel bodies: material grids, validity, sampling, mutation.

A body is an h x w integer matrix of material codes (row 0 at the top).
A usable body is a single 4-connected blob of non-empty cells containing
at least one actuator. Mutation resamples each cell independently and
repairs the result back to the largest connected component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import materials

CANONICAL_SIZES = ((5, 5), (7, 7))
MUTATION_RATE = 0.1
SAMPLER_MAX_TRIES = 1000
MUTATION_MAX_TRIES = 100


class InvalidMorphologyError(ValueError):
    """A body grid violates a structural requirement."""


@dataclass(frozen=True)
class Morphology:
    """Immutable h x w grid of material codes."""

    cells: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.cells)
        if raw.ndim != 2 or raw.size == 0:
            raise InvalidMorphologyError("cells must be a non-empty 2D grid")
        # checked before the int8 cast, which would truncate or wrap
        if raw.dtype.kind not in "iu":
            raise InvalidMorphologyError(f"material codes must be integers, got {raw.dtype} values")
        if raw.min() < 0 or raw.max() >= materials.NUM_CODES:
            raise InvalidMorphologyError("material codes must lie in 0..4")
        arr = raw.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def h(self) -> int:
        return self.cells.shape[0]

    @property
    def w(self) -> int:
        return self.cells.shape[1]

    @property
    def is_canonical_size(self) -> bool:
        return (self.h, self.w) in CANONICAL_SIZES

    def active_cells(self) -> list[tuple[int, int]]:
        mask = (self.cells == materials.ACTUATOR_H) | (self.cells == materials.ACTUATOR_V)
        rows, cols = np.nonzero(mask)
        return list(zip(rows.tolist(), cols.tolist()))

    @cached_property
    def _simulability(self) -> tuple[bool, str | None]:
        """``simulability_report``, scanned once: the cells are read-only."""
        if not np.any(self.cells != materials.EMPTY):
            return False, "body is empty"
        _, sizes = _component_sizes(self.cells)
        if len(sizes) > 1:
            return False, f"body has {len(sizes)} disconnected components"
        return True, None

    @cached_property
    def _validity(self) -> tuple[bool, str | None]:
        """``validity_report``, checked once: the cells are read-only."""
        ok, reason = self._simulability
        if ok and not self.active_cells():
            return False, "no actuator cell (code 3 or 4)"
        return ok, reason

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphology):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(np.all(self.cells == other.cells))

    def __hash__(self) -> int:
        return hash((self.cells.shape, self.cells.tobytes()))

    def to_json(self) -> dict:
        return {"h": self.h, "w": self.w, "cells": self.cells.tolist()}

    @staticmethod
    def from_json(data: dict) -> "Morphology":
        cells = np.asarray(data["cells"])
        if cells.shape != (data["h"], data["w"]):
            raise InvalidMorphologyError(
                f"cells shape {cells.shape} does not match declared ({data['h']}, {data['w']})"
            )
        return Morphology(cells)


def _component_sizes(cells: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Label 4-connected components of non-empty cells (label 0 = empty).

    The flood fill runs on flat Python lists, which index several times
    faster than numpy scalars: the grid row by row, framed by empty cells,
    so that every cell's four neighbours are at fixed offsets and in range.
    """
    h, w = cells.shape
    stride = w + 2
    filled = [False] * stride
    for row in cells.tolist():
        filled += [False, *(code != materials.EMPTY for code in row), False]
    filled += [False] * stride
    labels = [0] * len(filled)
    sizes = []
    for start, full in enumerate(filled):  # row-major, as in the grid
        if not full or labels[start]:
            continue
        label = len(sizes) + 1
        labels[start] = label
        stack = [start]
        count = 0
        while stack:
            i = stack.pop()
            count += 1
            for n in (i - stride, i + stride, i - 1, i + 1):
                if filled[n] and not labels[n]:
                    labels[n] = label
                    stack.append(n)
        sizes.append(count)
    return np.array(labels, dtype=np.int32).reshape(h + 2, stride)[1:-1, 1:-1], sizes


def repair_to_largest_component(cells: np.ndarray) -> np.ndarray:
    """Zero out everything but the largest 4-connected non-empty component.

    Ties go to the component discovered first in row-major order, which is
    the one containing the smallest (row, col) cell. Never adds cells.
    """
    labels, sizes = _component_sizes(cells)
    if not sizes:
        return np.zeros_like(cells)
    keep = int(np.argmax(sizes)) + 1  # argmax takes the first maximum: row-major tie-break
    out = np.where(labels == keep, cells, materials.EMPTY).astype(np.int8)
    return out


def _repaired(cells: np.ndarray) -> Morphology:
    """The body of the largest component of ``cells``. The repair's labels
    already show a non-empty one to be a single component, so its
    simulability is recorded as such and never scanned again."""
    body = Morphology(repair_to_largest_component(cells))
    if np.count_nonzero(body.cells):
        object.__setattr__(body, "_simulability", (True, None))  # where the cached property keeps its value
    return body


def validity_report(m: Morphology) -> tuple[bool, str | None]:
    """Full validity: simulable (non-empty, one connected blob) plus >=1 actuator."""
    return m._validity


def simulability_report(m: Morphology) -> tuple[bool, str | None]:
    """Structural validity only; a simulable body may lack actuators."""
    return m._simulability


def is_valid(m: Morphology) -> bool:
    return validity_report(m)[0]


def require_valid(m: Morphology) -> None:
    ok, reason = validity_report(m)
    if not ok:
        raise InvalidMorphologyError(reason)


def random_morphology(h: int, w: int, rng: np.random.Generator) -> Morphology:
    """Sample a valid body: uniform cells, repaired to the largest component.

    Repaired grids that are still empty or actuator-free are resampled.
    """
    if h < 1 or w < 1:
        raise ValueError("grid dimensions must be >= 1")
    for _ in range(SAMPLER_MAX_TRIES):
        candidate = _repaired(rng.integers(0, materials.NUM_CODES, size=(h, w), dtype=np.int8))
        if is_valid(candidate):
            return candidate
    raise RuntimeError(f"failed to sample a valid {h}x{w} body in {SAMPLER_MAX_TRIES} tries")


def resample_cells(cells: np.ndarray, rng: np.random.Generator, rate: float = MUTATION_RATE) -> np.ndarray:
    """Raw per-cell mutation, before any repair.

    Each cell is independently resampled with probability `rate`, uniformly
    over the 4 codes different from its current one (empty counts as both a
    source and a target). Always consumes the same amount of rng stream
    regardless of which cells flip.
    """
    flips = rng.random(size=cells.shape) < rate
    offsets = rng.integers(1, materials.NUM_CODES, size=cells.shape, dtype=np.int8)
    resampled = (cells + offsets) % materials.NUM_CODES
    return np.where(flips, resampled, cells).astype(np.int8)


def mutate_morphology(
    m: Morphology, rng: np.random.Generator, rate: float = MUTATION_RATE
) -> Morphology:
    """Mutate a body and repair it; retry until valid, else return the parent.

    The whole mutation (fresh coin flips) is retried when repair leaves the
    body empty or actuator-free, up to MUTATION_MAX_TRIES attempts.
    """
    require_valid(m)
    for _ in range(MUTATION_MAX_TRIES):
        candidate = _repaired(resample_cells(m.cells, rng, rate))
        if is_valid(candidate):
            return candidate
    return m


def morphology_distance(a: Morphology, b: Morphology) -> int:
    """Hamming distance over cells: count of positions with differing codes."""
    if a.cells.shape != b.cells.shape:
        raise ValueError(f"shape mismatch: {a.cells.shape} vs {b.cells.shape}")
    return int(np.count_nonzero(a.cells != b.cells))
