"""Shared fixtures: the two-node reference system and a desk-scale ensemble.

rcstab is imported before numpy, so its one-thread OpenBLAS default applies
to the whole suite.
"""

import rcstab as rc  # isort: skip  (must load before numpy)

import numpy as np
import pytest


@pytest.fixture(scope="session")
def two_node_system():
    """Two-node antisymmetric network with the cubic reference dynamics.

    alpha_max of the symmetric part is exactly zero, and the certified radius
    for coefficients (-3, 4, -1) is exactly 1.
    """
    net = rc.ReservoirNetwork(
        a=np.array([[0.0, 1.0], [-1.0, 0.0]]), w=np.zeros(2)
    )
    f = rc.Polynomial((-3.0, 4.0, -1.0))
    return net, f


@pytest.fixture(scope="session")
def ensemble_network():
    """One realization of the 100-node random topology."""
    return rc.construct_adjacency(100, seed=0, input_coupling="signs")


@pytest.fixture(scope="session")
def lorenz_pair_short():
    """Short normalized Lorenz x -> z pair for fast pipeline tests."""
    traj = rc.integrate_lorenz(n_steps=1500, dt=0.02, transient_steps=2000)
    return rc.make_signal_pair(traj, "x", "z")
