"""In-memory span recorder for the traced run, and the per-layer metrics.

A span is (name, start, end, parent). The recorder wraps public functions
where their callers look them up: a name imported with ``from ... import``
is replaced in the importing module, a module-internal call in the defining
module, a method on its class. Spans live in flat arrays while the
benchmark runs and are written out once, when it ends. A span's self time
is its duration minus the durations of its children; spans of one thread
nest, so the children never overlap.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from voxevo import control, evolution, sim_core, tasks

# (owner, attribute, span name); the span name is "<layer>.<function>".
WRAPPED = (
    (tasks, "build_world", "sim_core.build_world"),
    (tasks, "set_actuation_targets", "sim_core.set_actuation_targets"),
    (sim_core, "step", "sim_core.step"),
    (sim_core, "spring_forces", "sim_core.spring_forces"),
    (sim_core, "contact_forces", "sim_core.contact_forces"),
    (tasks, "compute_actions", "control.compute_actions"),
    (control, "observation_matrix", "control.observation_matrix"),
    (control, "forward_batch", "control.forward_batch"),
    (tasks, "run_episode", "tasks.run_episode"),
    (tasks.EpisodeEvaluator, "fitness_many", "tasks.fitness_many"),
    (evolution, "advance_generation", "evolution.advance_generation"),
    (evolution, "make_offspring", "evolution.make_offspring"),
    (evolution, "truncation_select", "evolution.truncation_select"),
    (evolution, "save_checkpoint", "evolution.save_checkpoint"),
    (evolution, "mutate_morphology", "morphology.mutate_morphology"),
    (evolution, "random_morphology", "morphology.random_morphology"),
)


class Tracer:
    """Records one span per call of every function in ``WRAPPED``.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    originals, so only the calls in between are recorded. Worlds built and
    control calls also record a size: masses and springs per world, active
    voxels per control call.
    """

    def __init__(self):
        self.names = [name for _, _, name in WRAPPED]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.sizes: dict[str, list[int]] = {
            "masses_per_world": [],
            "springs_per_world": [],
            "active_voxels_per_call": [],
        }
        self._stack = [-1]
        self._paused_ns = [0]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for nid, (owner, attr, _) in enumerate(WRAPPED):
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(nid, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def pause(self, seconds: float) -> None:
        """Stop the span clock for ``seconds`` of work that belongs to no span."""
        self._paused_ns[0] += int(seconds * 1e9)

    def _wrap(self, nid: int, original):
        stack, name_id, start, end, parent = self._stack, self.name_id, self.start, self.end, self.parent
        paused = self._paused_ns
        sizes = self.sizes
        name = self.names[nid]

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns() - paused[0]
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter_ns() - paused[0]
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if name == "sim_core.build_world":
                sizes["masses_per_world"].append(result.num_masses)
                sizes["springs_per_world"].append(result.num_springs)
            elif name == "control.compute_actions":
                sizes["active_voxels_per_call"].append(len(args[1].actuator_cells))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        return {
            "name_id": name_id,
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "duration_ns": duration,
            "self_ns": duration - children,
        }

    def write(self, path: Path) -> None:
        """Write every span as the arrays of one .npz file; ``names`` maps ``name_id``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: spans[k] for k in ("name_id", "start_ns", "end_ns", "parent")})


def span_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, median duration and median self time (µs)."""
    spans = tracer.arrays()
    stats = {}
    for nid, name in enumerate(tracer.names):
        mask = spans["name_id"] == nid
        calls = int(mask.sum())
        if calls == 0:
            stats[name] = {"calls": 0, "us_p50": 0.0, "self_us_p50": 0.0}
            continue
        stats[name] = {
            "calls": calls,
            "us_p50": float(np.median(spans["duration_ns"][mask])) / 1e3,
            "self_us_p50": float(np.median(spans["self_ns"][mask])) / 1e3,
        }
    return stats


def self_time_violations(tracer: Tracer) -> int:
    """Spans whose children together outlast them; zero when spans nest."""
    return int((tracer.arrays()["self_ns"] < 0).sum())
