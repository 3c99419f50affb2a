"""Benchmark signal generation and normalization."""

import math

import numpy as np
import pytest

from rcstab.errors import ConfigError, DegenerateSignalError, IntegrationDivergedError
from rcstab.signals import (
    SignalSpec,
    integrate_duffing,
    integrate_lorenz,
    make_signal_pair,
    normalize,
)


class TestNormalize:
    def test_hand_value(self):
        out = normalize([1.0, 2.0, 3.0])
        root32 = math.sqrt(1.5)
        assert np.allclose(out, [-root32, 0.0, root32], atol=1e-15)

    def test_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 12.0, size=400)
        out = normalize(x)
        assert abs(out.mean()) <= 1e-12
        assert abs(out.std() - 1.0) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 9, size=257)
        once = normalize(x)
        assert np.max(np.abs(normalize(once) - once)) <= 1e-12

    def test_order_preserving_affine(self):
        x = np.array([3.0, -1.0, 7.0, 2.0])
        out = normalize(x)
        assert np.all(np.argsort(out) == np.argsort(x))

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize([5.0, 5.0, 5.0])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalize([1.0])


class TestLorenz:
    def test_chaotic_statistics(self):
        traj = integrate_lorenz(
            n_steps=10_000, dt=0.01, initial=(1.0, 1.0, 1.0), transient_steps=5000
        )
        x = traj.component("x")
        assert abs(x.mean()) < 1.5
        assert 6.0 <= x.std() <= 10.0

    def test_origin_attracts_for_small_rho(self):
        traj = integrate_lorenz(
            n_steps=3000, dt=0.01, initial=(1.0, 1.0, 1.0), transient_steps=0, rho=0.0
        )
        assert np.linalg.norm(traj.samples[-1]) < 1e-3

    def test_zero_initial_is_fixed(self):
        traj = integrate_lorenz(
            n_steps=50, dt=0.01, initial=(0.0, 0.0, 0.0), transient_steps=10
        )
        assert np.all(traj.samples == 0.0)

    def test_determinism(self):
        a = integrate_lorenz(n_steps=500, dt=0.02, transient_steps=100)
        b = integrate_lorenz(n_steps=500, dt=0.02, transient_steps=100)
        assert np.array_equal(a.samples, b.samples)

    def test_fourth_order_convergence(self):
        # endpoint error over t=1 should shrink by ~16x per halving; >= 8 is
        # the acceptance bar for a fourth-order scheme
        ref = integrate_lorenz(n_steps=1, dt=1.0 / 12800, transient_steps=12800)
        end_ref = ref.samples[0]
        err = []
        for n in (100, 200):
            traj = integrate_lorenz(n_steps=1, dt=1.0 / n, transient_steps=n)
            err.append(np.linalg.norm(traj.samples[0] - end_ref))
        assert err[0] / err[1] >= 8.0


class TestDuffing:
    def test_unforced_damped_settles(self):
        traj = integrate_duffing(
            n_steps=2000, dt=0.01, initial=(1.5, 0.3), transient_steps=18_000, gamma=0.0
        )
        assert abs(traj.component("y")[-1]) < 1e-3

    def test_chaotic_set_is_bounded(self):
        traj = integrate_duffing(n_steps=20_000, dt=0.01, transient_steps=5000)
        assert np.max(np.abs(traj.component("x"))) < 10.0

    def test_zero_initial_unforced_is_fixed(self):
        traj = integrate_duffing(
            n_steps=100, dt=0.01, initial=(0.0, 0.0), transient_steps=0, gamma=0.0
        )
        assert np.all(traj.samples == 0.0)

    def test_divergence_raises(self):
        # flipped-sign stiffness makes the cubic term anti-restoring
        with pytest.raises(IntegrationDivergedError):
            integrate_duffing(
                n_steps=100_000,
                dt=0.01,
                initial=(1.0, 0.0),
                transient_steps=0,
                gamma=0.0,
                beta=-1.0,
            )


class TestSignalPair:
    def test_lorenz_x_to_z(self):
        traj = integrate_lorenz(n_steps=600, dt=0.02, transient_steps=1000)
        pair = make_signal_pair(traj, "x", "z")
        for seq in (pair.input, pair.target):
            assert abs(seq.mean()) <= 1e-10
            assert abs(seq.std() - 1.0) <= 1e-10
        assert pair.length == 600

    def test_duffing_x_to_y(self):
        traj = integrate_duffing(n_steps=400, dt=0.02, transient_steps=1000)
        pair = make_signal_pair(traj, "x", "y")
        assert pair.length == 400

    def test_self_pairing(self):
        traj = integrate_lorenz(n_steps=300, dt=0.02, transient_steps=500)
        pair = make_signal_pair(traj, "x", "x")
        assert np.array_equal(pair.input, pair.target)

    def test_unknown_component(self):
        traj = integrate_lorenz(n_steps=50, dt=0.02, transient_steps=0)
        with pytest.raises(ConfigError):
            make_signal_pair(traj, "x", "w")

    def test_spec_builder(self):
        pair = SignalSpec(dt=0.02, transient_steps=200).build(250)
        assert pair.length == 250

