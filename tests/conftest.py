import os

import numpy as np
import pytest

from voxevo.morphology import Morphology
from voxevo.terrain import make_flat_terrain


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def flat():
    return make_flat_terrain()


@pytest.fixture
def single_actuator():
    return Morphology([[3]])


@pytest.fixture
def small_body():
    # one of each material around a vertical actuator
    return Morphology([[3, 1], [2, 4]])


@pytest.fixture
def affinity(monkeypatch):
    """``affinity(k)`` makes ``os.sched_getaffinity`` report ``k`` CPUs for
    the rest of the test, as if the process had been narrowed (or widened)
    to them."""

    def narrow(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return narrow
