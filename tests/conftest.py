import numpy as np
import pytest

from latspin import dynamics
from latspin.lattice import Grid
from latspin.lie import so3


@pytest.fixture(scope="session")
def g():
    return so3()


@pytest.fixture
def grid32():
    return Grid((32,), (1.0 / 32,))


@pytest.fixture
def grid2d16():
    return Grid((16, 16), (1.0 / 16, 1.0 / 16))


def rng(seed=0):
    return np.random.default_rng(seed)


def whole_trajectory(cfg):
    """The run of cfg with every step held: its visitor copies each step it sees
    into one Trajectory, which the monitors and oracles can then read at once."""
    whole = dynamics.Trajectory(cfg)

    def keep(traj, n):
        whole.states.update(traj.states)
        whole.group_path.update(traj.group_path)

    dynamics.simulate(cfg, keep)
    return whole
