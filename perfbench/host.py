"""The host a benchmark ran on: its environment, and a speed probe.

On a shared host the speed of the machine itself drifts: identical runs
read up to 1.8 times slower in some phases than in others, for minutes at
a time, with CPU time equal to wall time. The probe is a fixed pure-numpy
loop shaped like simulator steps on a bridge world (130 point masses,
330 springs: rest-length advance, gathers, row-wise dot products, a dense
scatter matmul, ground and strip contact) with a modular controller's
observation windows, 32-unit layer and actuation targets every fifth
step. It runs no ``voxevo`` code. Timing it right before and after each measured
interval tells host drift apart from a change in the program, and lets
the benchmark report times rescaled to one reference host speed.
"""

from __future__ import annotations

import os
import platform
from time import perf_counter

import numpy as np

# Host-normalised times are wall times scaled by REFERENCE_PROBE_S / probe
# time: on a host where the probe takes 2 ms (its time in the fast phase of
# the shared 2-vCPU Intel Xeon VM the benchmark was calibrated on, where the
# slow phase reads about 3.5 ms) they equal wall times.
REFERENCE_PROBE_S = 0.002
PROBE_STEPS = 20
PROBE_REPEATS = 2
DT = 0.005

_rng = np.random.default_rng(20240214)
_N, _S, _V = 130, 330, 20  # point masses, springs, active voxels
_POS = _rng.random((_N, 2)) * 4.0
_I = _rng.integers(0, _N, _S)
_J = (_I + 1 + _rng.integers(0, _N - 1, _S)) % _N
_REST = _rng.random(_S) + 0.5
_K = np.full(_S, 100.0)
_C = np.full(_S, 0.5)
_INC = np.zeros((_N, _S))
_INC[_I, np.arange(_S)] = 1.0
_INC[_J, np.arange(_S)] = -1.0
_MASS = np.full(_N, 0.25)
_COM = _MASS / _MASS.sum()
_STRIP = np.sort(_rng.random(45) * 44.0 + 8.0)
_CORNERS = _rng.integers(0, _N, (_V, 4))
_NEXT = np.array([1, 2, 3, 0])
_WINDOW = _rng.integers(-1, _V, (_V, 9))
_PRESENT = _WINDOW >= 0
_SAFE = np.where(_PRESENT, _WINDOW, 0)
_BASE = np.arange(9) * 8
_TEMPLATE = np.zeros((_V, 73))
_W1 = _rng.normal(0.0, 0.1, (32, 73))
_B1 = _rng.normal(0.0, 0.1, 32)
_W2 = _rng.normal(0.0, 0.1, 32)
_ACTUATED = _rng.integers(0, _S, (_V, 2))


def _control(pos, vel, rest_target):
    """Observation windows, a 32-unit layer and actuation targets, as a
    modular controller does every fifth step."""
    quad = pos[_CORNERS]
    x, y = quad[:, :, 0], quad[:, :, 1]
    areas = 0.5 * np.abs((x * y[:, _NEXT] - x[:, _NEXT] * y).sum(axis=1))
    vels = vel[_CORNERS].mean(axis=1)
    obs = _TEMPLATE.copy()
    obs[:, _BASE] = np.where(_PRESENT, areas[_SAFE], 0.0)
    obs[:, _BASE + 1] = np.where(_PRESENT, vels[_SAFE, 0], 0.0)
    obs[:, _BASE + 2] = np.where(_PRESENT, vels[_SAFE, 1], 0.0)
    hidden = np.tanh(obs @ _W1.T + _B1)
    actions = 0.6 + 1.0 / (1.0 + np.exp(-np.clip(hidden @ _W2, -500.0, 500.0)))
    flat = _ACTUATED.ravel()
    sums = np.bincount(flat, weights=np.repeat(actions, 2), minlength=_S)
    counts = np.bincount(flat, minlength=_S)
    written = counts > 0
    rest_target[written] = _REST[written] * sums[written] / counts[written]


def _probe_once() -> float:
    pos = _POS.copy()
    vel = np.zeros_like(pos)
    force = np.empty_like(pos)
    rest = _REST.copy()
    rest_target = _REST.copy()
    start = perf_counter()
    for step in range(PROBE_STEPS):
        if step % 5 == 0:
            _control(pos, vel, rest_target)
        delta = np.clip(rest_target - rest, -0.2, 0.2)
        rest += delta
        d = np.take(pos, _J, axis=0)
        d -= np.take(pos, _I, axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        np.maximum(dist, 1e-12, out=dist)
        dv = np.take(vel, _J, axis=0)
        dv -= np.take(vel, _I, axis=0)
        speed = np.einsum("ij,ij->i", dv, d)
        speed /= dist
        magnitude = _K * (dist - rest)
        magnitude += _C * speed
        magnitude /= dist
        d *= magnitude[:, None]
        np.matmul(_INC, d, out=force)
        y = pos[:, 1]
        normal = np.maximum(-1e4 * y - 50.0 * vel[:, 1], 0.0)
        normal *= y < 0.0
        friction = np.clip(_MASS * vel[:, 0] / -DT, -0.5 * normal, 0.5 * normal)
        force[:, 0] += friction
        force[:, 1] += normal
        seg = np.clip(np.searchsorted(_STRIP, pos[:20, 0] * 10.0) - 1, 0, _STRIP.size - 2)
        np.add.at(force[:, 0], seg, -friction[:20])
        np.add.at(force[:, 1], seg + 1, -normal[:20])
        force[:, 1] -= 9.81 * _MASS
        force /= _MASS[:, None]
        force *= DT
        vel += force
        pos += vel * DT
        if not np.isfinite(float(np.abs(pos).max())):
            raise FloatingPointError("probe diverged")
        float(pos[:, 0] @ _COM)
    return perf_counter() - start


def probe_seconds() -> float:
    """The fastest of a few back-to-back probes, which drops scheduler blips."""
    return min(_probe_once() for _ in range(PROBE_REPEATS))


def normalised(seconds: float, probes) -> float:
    """``seconds`` of wall time rescaled to the calibration host's speed,
    using the mean of the probes taken around that interval."""
    return seconds * REFERENCE_PROBE_S / float(np.mean(probes))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
