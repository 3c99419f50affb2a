"""Adjacency construction and spectral machinery."""

import numpy as np
import pytest

from rcstab.errors import ConstructionError, SpectralRadiusError
from rcstab.network import (
    alpha_max,
    construct_adjacency,
    critical_shifts,
    spectral_abscissa,
    spectral_normalize,
)

ANTISYM = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestConstruction:
    def test_exact_counts_and_normalization(self):
        net = construct_adjacency(100, seed=7)
        off_mask = ~np.eye(100, dtype=bool)
        zeros = int(np.sum((net.a == 0.0) & off_mask))
        assert zeros == 4950
        negatives = int(np.sum(net.a < 0.0))
        assert negatives == 2475
        assert np.all(np.diag(net.a) == 0.0)
        assert abs(abs(spectral_abscissa(net.a)) - 0.5) <= 1e-9

    def test_determinism(self):
        a = construct_adjacency(40, seed=3)
        b = construct_adjacency(40, seed=3)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.w, b.w)

    def test_seeds_differ(self):
        a = construct_adjacency(40, seed=3)
        b = construct_adjacency(40, seed=4)
        assert not np.array_equal(a.a, b.a)

    def test_signs_coupling_is_unit_magnitude(self):
        net = construct_adjacency(30, seed=1, input_coupling="signs")
        assert set(np.unique(net.w)) <= {-1.0, 1.0}

    def test_uniform_coupling_range(self):
        net = construct_adjacency(30, seed=1)
        assert np.all(np.abs(net.w) <= 1.0)

    def test_exact_count_across_realizations(self):
        # the construction is exact-count, not Bernoulli: every realization
        # zeroes exactly half of the off-diagonal entries
        m = 100
        off_mask = ~np.eye(m, dtype=bool)
        for seed in range(200):
            net = construct_adjacency(m, seed=seed)
            assert int(np.sum((net.a == 0.0) & off_mask)) == 4950

    def test_spectral_target(self):
        net = construct_adjacency(25, seed=9, spectral_target=0.8)
        assert abs(abs(spectral_abscissa(net.a)) - 0.8) <= 1e-9

    def test_too_small(self):
        with pytest.raises(ValueError):
            construct_adjacency(1, seed=0)


class TestAlphaMax:
    def test_antisymmetric_is_zero(self):
        assert alpha_max(ANTISYM) == 0.0

    def test_symmetric_pair(self):
        assert abs(alpha_max([[0.0, 1.0], [1.0, 0.0]]) - 1.0) <= 1e-12

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 10))
        sym = 0.5 * (a + a.T)
        shift = np.abs(sym).sum(axis=1).max() + 1.0
        b = sym + shift * np.eye(10)
        v = np.ones(10) / np.sqrt(10)
        for _ in range(20_000):
            v = b @ v
            v /= np.linalg.norm(v)
        oracle = v @ (sym @ v)
        assert abs(alpha_max(a) - oracle) <= 1e-10 * max(1.0, abs(oracle))


class TestSpectralNormalize:
    def test_linear_scaling(self):
        a = np.diag([2.0, -1.0])
        out = spectral_normalize(a, 0.5)
        assert np.allclose(out, a / 4.0, atol=0, rtol=0)

    def test_already_normalized(self):
        net = construct_adjacency(12, seed=2)
        out = spectral_normalize(net.a, 0.5)
        assert np.max(np.abs(out - net.a)) <= 1e-12

    def test_zero_abscissa_rejected(self):
        with pytest.raises(ConstructionError):
            spectral_normalize(ANTISYM, 0.5)


class TestCriticalShifts:
    def test_hand_worked_spectrum(self):
        # real matrix with eigenvalues 0.2 +- 0.5i and -0.4
        a = np.zeros((3, 3))
        a[0, 0] = a[1, 1] = 0.2
        a[0, 1], a[1, 0] = 0.5, -0.5
        a[2, 2] = -0.4
        spec = critical_shifts(a)
        assert abs(spec.rho_plus - (np.sqrt(0.75) - 0.2)) <= 1e-12
        assert abs(spec.rho_minus - (-0.6)) <= 1e-12
        assert abs(spec.eigenvalues[spec.critical_plus].imag) > 0.4
        assert abs(spec.eigenvalues[spec.critical_minus] - (-0.4)) <= 1e-12

    def test_single_zero_eigenvalue(self):
        spec = critical_shifts(np.zeros((1, 1)))
        assert spec.rho_plus == 1.0
        assert spec.rho_minus == -1.0

    def test_unit_eigenvalue_rejected(self):
        with pytest.raises(SpectralRadiusError):
            critical_shifts(np.array([[1.0]]))

    def test_interval_brackets_zero(self):
        # rho_minus <= 0 <= rho_plus for any matrix inside the unit circle;
        # realizations with eigenvalues outside the disk take the error path
        checked = 0
        for seed in range(100):
            net = construct_adjacency(12, seed=seed)
            if np.abs(np.linalg.eigvals(net.a)).max() >= 1.0:
                with pytest.raises(SpectralRadiusError):
                    critical_shifts(net.a)
                continue
            spec = critical_shifts(net.a)
            assert spec.rho_minus <= 0.0 <= spec.rho_plus
            checked += 1
        assert checked >= 80

    def test_shift_soundness_small(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            raw = rng.normal(size=(m, m))
            a = raw * (0.8 / np.abs(np.linalg.eigvals(raw)).max())
            spec = critical_shifts(a)
            for k in rng.uniform(spec.rho_minus, spec.rho_plus, size=20):
                shifted = np.linalg.eigvals(k * np.eye(m) + a)
                assert np.all(np.abs(shifted) <= 1.0 + 1e-9)

