"""Driven simulation, regression matrix, readout fitting, training error."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import rcstab as rc
from rcstab.errors import DegenerateTargetError, TruncatedRunError
from rcstab.reservoir import (
    build_omega,
    drive_continuous,
    drive_discrete,
    fit_readout,
    spread,
)

ZERO_F = rc.Polynomial((0.0,))


def single_node(w=1.0):
    return rc.ReservoirNetwork(a=np.zeros((1, 1)), w=np.array([w]))


class TestDriveDiscrete:
    def test_unit_delay_copy(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=200)
        result = drive_discrete(single_node(), ZERO_F, s)
        assert not result.diverged
        assert np.array_equal(result.states[:, 0], s)

    def test_zero_input_zero_state(self, ensemble_network):
        s = np.zeros(100)
        result = drive_discrete(ensemble_network, rc.ScaledTanh(-1.0, 0.5), s)
        assert np.all(result.states == 0.0)

    def test_determinism(self, ensemble_network, lorenz_pair_short):
        f = rc.ScaledTanh(-1.0, 0.5)
        a = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        b = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        assert np.array_equal(a.states, b.states)

    def test_divergence_flagged(self, ensemble_network, lorenz_pair_short):
        f = rc.Polynomial((0.0, 0.0, 3.0))
        result = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        assert result.diverged
        assert result.divergence_step is not None
        assert result.states.shape[0] == result.divergence_step


class TestDriveContinuous:
    def test_zero_input_decays_inside_basin(self, two_node_system):
        net, f = two_node_system
        s = np.zeros(3000)
        result = drive_continuous(net, f, s, dt=0.02, initial=(0.5, 0.5))
        assert not result.diverged
        assert np.linalg.norm(result.states[-1]) < 1e-4

    def test_linear_dynamics_match_matrix_exponential(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) * 0.3
        net = rc.ReservoirNetwork(a=a, w=np.zeros(3))
        p1 = -3.0
        r0 = np.array([0.4, -0.2, 0.9])
        dt, n = 0.01, 400
        result = drive_continuous(net, rc.Polynomial((p1,)), np.zeros(n), dt, initial=r0)
        exact = expm((a + p1 * np.eye(3)) * (n * dt)) @ r0
        assert np.max(np.abs(result.states[-1] - exact)) <= 1e-9

    def test_zero_order_hold_quadrature(self):
        # with f = 0 and A = 0 each step integrates a constant: r += w*s*dt
        net = single_node(w=2.0)
        s = np.array([1.0, -3.0, 0.5])
        result = drive_continuous(net, ZERO_F, s, dt=0.1)
        expected = 2.0 * np.cumsum(s) * 0.1
        assert np.allclose(result.states[:, 0], expected, atol=1e-15)

    def test_divergence_flagged(self, ensemble_network, lorenz_pair_short):
        f = rc.Polynomial((-3.0, 0.0, 3.0))
        result = drive_continuous(ensemble_network, f, lorenz_pair_short.input, dt=0.02)
        assert result.diverged


class TestBuildOmega:
    def test_shape_and_ones_column(self):
        states = np.arange(24000.0).reshape(12000, 2)
        omega = build_omega(rc.DriveResult(states), transient=2000, n_keep=10000)
        assert omega.shape == (10000, 3)
        assert np.all(omega[:, 2] == 1.0)
        assert np.array_equal(omega[:, :2], states[2000:12000])

    def test_truncated_run_rejected(self):
        states = np.zeros((500, 2))
        result = rc.DriveResult(states, diverged=True, divergence_step=500)
        with pytest.raises(TruncatedRunError):
            build_omega(result)

    def test_full_length(self):
        states = np.ones((100, 3))
        omega = build_omega(rc.DriveResult(states), transient=0, n_keep=100)
        assert omega.shape == (100, 4)


class TestSpread:
    def test_hand_value(self):
        assert abs(spread([1.0, 2.0, 3.0]) - math.sqrt(2.0 / 3.0)) <= 1e-12

    def test_constant(self):
        assert spread([4.0] * 10) == 0.0

    def test_normalized_signal(self):
        assert abs(spread(rc.normalize(np.arange(50.0))) - 1.0) <= 1e-12


class TestFitReadout:
    def _random_omega(self, seed, n=300, m=6):
        rng = np.random.default_rng(seed)
        return np.hstack([rng.normal(size=(n, m)), np.ones((n, 1))]), rng

    def test_exact_recovery(self):
        omega, rng = self._random_omega(1)
        k_true = rng.normal(size=omega.shape[1])
        g = omega @ k_true
        fitted = fit_readout(omega, g)
        assert np.linalg.norm(omega @ fitted.k - g) / np.linalg.norm(g) <= 1e-8
        assert fitted.delta_rc <= 1e-8

    def test_orthogonal_target_gives_unit_error(self):
        omega, rng = self._random_omega(2)
        v = rng.normal(size=omega.shape[0])
        # project out the column space; the ones column makes g mean-zero
        coeff, *_ = np.linalg.lstsq(omega, v, rcond=None)
        g = v - omega @ coeff
        fitted = fit_readout(omega, g)
        assert abs(fitted.delta_rc - 1.0) <= 1e-8

    def test_rank_deficient_min_norm(self):
        omega, rng = self._random_omega(3)
        omega[:, 1] = omega[:, 0]  # duplicated column
        g = rng.normal(size=omega.shape[0])
        fitted = fit_readout(omega, g)
        null_vec = np.zeros(omega.shape[1])
        null_vec[0], null_vec[1] = 1.0, -1.0
        assert np.linalg.norm(omega @ null_vec) <= 1e-10
        for eps in (0.1, -0.1, 1.0):
            other = fitted.k + eps * null_vec
            assert np.linalg.norm(other) > np.linalg.norm(fitted.k)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            fit_readout(np.ones((5, 2)), np.ones(4))


class TestTrainingError:
    def test_perfect_fit(self):
        omega, rng = TestFitReadout()._random_omega(4)
        g = omega @ rng.normal(size=omega.shape[1])
        assert fit_readout(omega, g).delta_rc <= 1e-10

    def test_zero_readout_unit_error(self):
        rng = np.random.default_rng(5)
        g = rc.normalize(rng.normal(size=400))
        assert abs(fit_readout(np.zeros((400, 3)), g).delta_rc - 1.0) <= 1e-9

    def test_constant_target_rejected(self):
        omega = np.ones((10, 2))
        with pytest.raises(DegenerateTargetError):
            fit_readout(omega, np.full(10, 3.3))

    def test_never_worse_than_mean_predictor(self):
        # the ones column guarantees delta <= 1 for mean-zero targets
        rng = np.random.default_rng(6)
        for trial in range(20):
            n, m = 120, 5
            omega = np.hstack([rng.normal(size=(n, m)), np.ones((n, 1))])
            g = rng.normal(size=n)
            g -= g.mean()
            assert fit_readout(omega, g).delta_rc <= 1.0 + 1e-9

    def test_invariant_under_column_rescaling(self):
        rng = np.random.default_rng(7)
        omega = np.hstack([rng.normal(size=(200, 4)), np.ones((200, 1))])
        g = rng.normal(size=200)
        base = fit_readout(omega, g).delta_rc
        for _ in range(5):
            col = int(rng.integers(0, 4))
            scale = float(rng.uniform(0.1, 5.0)) * (-1 if rng.uniform() < 0.5 else 1)
            shift = float(rng.uniform(-3, 3))
            scaled = omega.copy()
            scaled[:, col] = scale * scaled[:, col] + shift
            assert abs(fit_readout(scaled, g).delta_rc - base) <= 1e-9
