"""Region analysis: K* solvers, c_max classification, fixed-point shift,
basin verification."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import rcstab as rc
from rcstab import stability
from rcstab.errors import FixedPointError
from rcstab.signals import rk4_steps
from rcstab.stability import Regime, ShiftedDynamics

CUBIC = rc.Polynomial((-3.0, 4.0, -1.0))
C_GRID = np.concatenate([np.arange(0.01, 1.0, 0.07), np.arange(1.0, 10.01, 0.5)])


class TestKstarContinuous:
    def test_anchors(self):
        assert rc.kstar_continuous(CUBIC, 1.0) == 0.0
        assert abs(rc.kstar_continuous(CUBIC, 2.0) - 1.0) <= 1e-12
        assert rc.kstar_continuous(rc.Polynomial((-3.0,)), 7.3) == -3.0

    @pytest.mark.parametrize(
        "f",
        [
            CUBIC,
            rc.Polynomial((1.0, -0.5, 0.1, 0.0, -0.02)),
            rc.ScaledTanh(-2.0, 0.5),
            rc.ScaledTanh(1.5, 2.0),
        ],
    )
    def test_nondecreasing_in_c(self, f):
        values = [rc.kstar_continuous(f, c) for c in C_GRID]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("c", [0.5, 2.0, 6.0])
    def test_dominates_ratio(self, c):
        r = np.linspace(-c, c, 10_001)
        r = r[np.abs(r) > 1e-9]
        assert np.max(CUBIC.raw(r) / r) <= rc.kstar_continuous(CUBIC, c) + 1e-9

    def test_symmetric_in_quadratic_coefficient(self):
        for p2 in (0.5, 1.0, 4.0, 7.25):
            plus = rc.Polynomial((-3.0, p2, -1.0))
            minus = rc.Polynomial((-3.0, -p2, -1.0))
            for c in (0.3, 1.0, 2.0, 5.0):
                assert rc.kstar_continuous(plus, c) == rc.kstar_continuous(minus, c)


class TestCmaxContinuous:
    def test_reference_radius(self):
        report = rc.cmax_continuous(CUBIC, 0.0)
        assert report.regime is Regime.FINITE_REGION
        assert abs(report.c_max - 1.0) <= 1e-6
        assert abs(report.kstar_at_cmax - report.threshold) <= 1e-8

    def test_globally_stable_small_quadratic(self):
        report = rc.cmax_continuous(rc.Polynomial((-3.0, 1.0, -1.0)), 0.0)
        assert report.regime is Regime.GLOBALLY_STABLE
        assert report.c_max == math.inf
        assert abs(report.kstar_at_cmax - (-2.75)) <= 1e-12

    def test_unstable_slope(self):
        report = rc.cmax_continuous(rc.Polynomial((1.0,)), 0.5)
        assert report.regime is Regime.UNSTABLE
        assert report.c_max == 0.0

    def test_quartic_never_global(self):
        report = rc.cmax_continuous(rc.Polynomial((-3.0, 0.0, -1.0, 0.2)), 0.5)
        assert report.regime is Regime.FINITE_REGION
        assert 0.0 < report.c_max < math.inf

    def test_negligible_leading_term_not_global(self):
        # f(r)/r = -1 + r - 1e-305 r^2 <= -0.5 exactly for r <= 0.5 near the
        # origin; its far maximum must not be lost with the cut root
        report = rc.cmax_continuous(rc.Polynomial((-1.0, 1.0, -1e-305)), 0.5)
        assert report.regime is Regime.FINITE_REGION
        assert abs(report.c_max - 0.5) <= 1e-6

    def test_tanh_negative_gain_always_certified(self):
        report = rc.cmax_continuous(rc.ScaledTanh(-2.0, 0.5), 0.0)
        # K*(c) < 0 for every finite c, so no finite boundary exists
        assert report.regime is Regime.GLOBALLY_STABLE

    def test_crossing_matches_threshold(self):
        for alpha in (0.1, 0.5, 1.5):
            report = rc.cmax_continuous(CUBIC, alpha)
            assert report.regime is Regime.FINITE_REGION
            k_at = rc.kstar_continuous(CUBIC, report.c_max)
            assert abs(k_at - (-alpha)) <= 1e-7


class TestKstarDiscrete:
    def test_tanh_anchor(self):
        km, kp = rc.kstar_discrete(rc.ScaledTanh(-2.0, 0.5), 1.0)
        assert km == -1.0
        assert abs(kp - (-2.0 * math.tanh(0.5))) <= 1e-12

    def test_negative_gain_floor_is_exact(self):
        for p1, p2 in ((-2.0, 0.5), (-0.3, 1.7), (-6.0, 0.1)):
            f = rc.ScaledTanh(p1, p2)
            for c in np.arange(0.1, 10.01, 0.1):
                km, _ = rc.kstar_discrete(f, c)
                assert abs(km - p1 * p2) <= 1e-12

    def test_zero_dynamics(self):
        km, kp = rc.kstar_discrete(rc.Polynomial((0.0,)), 2.0)
        assert (km, kp) == (0.0, 0.0)

    def test_bracket_orders_and_monotonicity(self):
        f = rc.Polynomial((0.5, -1.0, -0.5))
        kms, kps = [], []
        for c in C_GRID:
            km, kp = rc.kstar_discrete(f, c)
            assert km <= kp
            kms.append(km)
            kps.append(kp)
        assert np.all(np.diff(kms) <= 1e-12)
        assert np.all(np.diff(kps) >= -1e-12)

    @pytest.mark.parametrize("c", [0.4, 1.3, 5.0])
    def test_bracket_contains_ratio(self, c):
        f = rc.Polynomial((0.5, -1.0, -0.5))
        km, kp = rc.kstar_discrete(f, c)
        r = np.linspace(-c, c, 10_001)
        r = r[np.abs(r) > 1e-9]
        ratio = f.raw(r) / r
        assert np.min(ratio) >= km - 1e-9
        assert np.max(ratio) <= kp + 1e-9


def reference_bracket(f, c):
    """The bracket as the standalone candidate enumeration formed it: Python's
    min and max, the first of tied values winning, over f(c)/c, f(-c)/-c,
    f'(0) and f(r)/r at each of the kind's stationary points in [-c, c]."""
    c = float(c)
    values = [float(f.raw(c) / c), float(f.raw(-c) / -c), float(f.derivative(0.0))]
    values += [float(f.raw(r) / r) for r in f.stationary_points() if -c <= r <= c]
    return (min(values), max(values))


def shipped_grid(name):
    """Every cell dynamics of a shipped sweep config."""
    cfg = json.loads((Path(__file__).parent.parent / "configs" / name).read_text())
    template = rc.Polynomial(tuple(cfg["dynamics"]["coefficients"]))
    ax, ay = cfg["sweep"]["axis_x"], cfg["sweep"]["axis_y"]
    return [
        rc.with_param(rc.with_param(template, ax["param"], x), ay["param"], y)
        for x in np.linspace(ax["min"], ax["max"], ax["steps"])
        for y in np.linspace(ay["min"], ay["max"], ay["steps"])
    ]


class TestKstarReference:
    """kstar_discrete and kstar_continuous equal the reference bracket bit
    for bit, the sign of a zero included."""

    @staticmethod
    def check(f, c):
        expected = [x.hex() for x in reference_bracket(f, c)]
        assert [x.hex() for x in rc.kstar_discrete(f, c)] == expected
        assert rc.kstar_continuous(f, c).hex() == expected[1]

    @pytest.mark.parametrize("name", ["cubic_sweep.json", "quartic_sweep.json"])
    def test_shipped_grids(self, name):
        cells = shipped_grid(name)
        assert len(cells) == 441
        for f in cells + [rc.Polynomial((-3.0, -6.0, -3.0))]:
            for c in (0.1, 1.0, 3.7):
                self.check(f, c)

    def test_zero_end_keeps_its_sign(self):
        # f(-1) = -0.0, so the chord at -1 and the stationary point r = -1
        # both give +0.0; adding a zero offset would turn them into -0.0
        f = rc.Polynomial((-3.0, -6.0, -3.0))
        assert [x.hex() for x in rc.kstar_discrete(f, 1.0)] == [(-12.0).hex(), (0.0).hex()]

    @pytest.mark.parametrize("p1", [-6.0, -2.0, 0.0, 2.5])
    @pytest.mark.parametrize("p2", [0.25, 1.2])
    def test_tanh_cells(self, p1, p2):
        for c in (0.1, 1.0, 3.7):
            self.check(rc.ScaledTanh(p1, p2), c)

    @pytest.mark.parametrize("p2", [0.5, -0.5])
    def test_flat_sigmoid_cells(self, p2):
        # f = 0: the chords and f'(0) tie at zeros of both signs
        for c in (0.1, 1.0, 1e6):
            self.check(rc.Sigmoid(0.0, p2), c)


def _spectral_with_rho(rho: float):
    """Spectral summary of the 1x1 zero matrix scaled: rho = +-1 for [[0]];
    use a real eigenvalue pair to pin rho at the wanted value."""
    a = np.array([[1.0 - rho, 0.0], [0.0, rho - 1.0]])
    return rc.critical_shifts(a)


class TestCmaxDiscrete:
    def test_tanh_window(self):
        spec = _spectral_with_rho(0.5)
        assert abs(spec.rho_plus - 0.5) <= 1e-12
        assert abs(spec.rho_minus - (-0.5)) <= 1e-12
        for p1 in (-1.0, -0.4, 0.7, 1.0):
            report = rc.cmax_discrete(rc.ScaledTanh(p1, 0.5), spec)
            assert report.regime is Regime.GLOBALLY_STABLE, p1
        for p1 in (-1.1, 1.2, 5.0):
            report = rc.cmax_discrete(rc.ScaledTanh(p1, 0.5), spec)
            assert report.regime is Regime.UNSTABLE, p1

    def test_zero_dynamics_global(self):
        report = rc.cmax_discrete(rc.Polynomial((0.0,)), _spectral_with_rho(0.3))
        assert report.regime is Regime.GLOBALLY_STABLE

    def test_cubic_finite_region_sides(self):
        spec = _spectral_with_rho(0.5)
        report = rc.cmax_discrete(rc.Polynomial((0.0, 0.0, -1.0)), spec)
        assert report.regime is Regime.FINITE_REGION
        # K+-(c) = -+ c^2 hits -+0.5 at c = sqrt(0.5); both sides tie, the
        # upper is reported
        assert abs(report.c_max - math.sqrt(0.5)) <= 1e-6
        km, kp = rc.kstar_discrete(rc.Polynomial((0.0, 0.0, -1.0)), report.c_max)
        assert km >= spec.rho_minus - 1e-8
        assert kp <= spec.rho_plus + 1e-8

    def test_flat_sigmoid_global(self, ensemble_network):
        # p1 = 0 makes f vanish identically, so f(r)/r = 0 at every radius
        spec = rc.critical_shifts(ensemble_network.a)
        report = rc.cmax_discrete(rc.Sigmoid(0.0, 0.5), spec)
        assert report.regime is Regime.GLOBALLY_STABLE
        assert report.kstar_at_cmax == 0.0

    def test_requires_shifted_for_sigmoid(self):
        with pytest.raises(ValueError):
            rc.cmax_discrete(rc.Sigmoid(1.0, 1.0), _spectral_with_rho(0.5))


class TestFixedPoint:
    def test_flat_sigmoid_uncoupled(self):
        net = rc.ReservoirNetwork(a=np.zeros((3, 3)), w=np.zeros(3))
        shifted = rc.fixed_point(net, rc.Sigmoid(1.0, 0.0))
        assert np.allclose(shifted.q_star, 0.5, atol=1e-12)

    def test_polynomial_origin(self, ensemble_network):
        shifted = rc.fixed_point(ensemble_network, CUBIC)
        assert np.all(shifted.q_star == 0.0)
        assert np.all(shifted.offsets == 0.0)
        assert shifted.homogeneous

    def test_ensemble_sigmoid_residual(self, ensemble_network):
        f = rc.Sigmoid(3.0, 0.5)
        shifted = rc.fixed_point(ensemble_network, f)
        assert shifted.max_residual(ensemble_network, f) <= 1e-10

    def test_singular_jacobian_configuration(self, ensemble_network):
        # p1*p2/4 equals the spectral abscissa here, which makes the Newton
        # Jacobian at the origin exactly singular; the solver must recover
        f = rc.Sigmoid(4.0, 0.5)
        shifted = rc.fixed_point(ensemble_network, f)
        assert shifted.max_residual(ensemble_network, f) <= 1e-10

    def test_unreachable_fixed_point_reports_residual(self):
        # with unit self-coupling the fixed-point equation reduces to
        # f(q) = 0, unsolvable for a constant (flat-sigmoid) node
        net = rc.ReservoirNetwork(a=np.array([[1.0]]), w=np.zeros(1))
        with pytest.raises(FixedPointError) as info:
            rc.fixed_point(net, rc.Sigmoid(5.0, 0.0))
        assert info.value.residual == pytest.approx(2.5)


class TestNonHomogeneous:
    def test_homogeneous_reduction(self):
        for f in (rc.ScaledTanh(-2.0, 0.5), CUBIC):
            shifted = ShiftedDynamics(f, np.zeros(4), np.zeros(4))
            for c in (0.3, 1.0, 4.0):
                assert shifted.kpair(c) == rc.kstar_discrete(f, c) == reference_bracket(f, c)

    def test_single_node_sigmoid_worked_example(self):
        # q* solves q = 1/(1 + e^(-2q)); scalar oracle via bisection
        lo, hi = 0.5, 1.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - 1.0 / (1.0 + math.exp(-2.0 * mid)) < 0:
                lo = mid
            else:
                hi = mid
        q_oracle = 0.5 * (lo + hi)
        net = rc.ReservoirNetwork(a=np.zeros((1, 1)), w=np.zeros(1))
        f = rc.Sigmoid(1.0, 2.0)
        shifted = rc.fixed_point(net, f)
        assert abs(shifted.q_star[0] - q_oracle) <= 1e-10
        # derivative of the recentered node at 0: p1 p2 e^(-p2 q)/(1+e^(-p2 q))^2
        e = math.exp(-2.0 * q_oracle)
        d0_formula = 2.0 * e / (1.0 + e) ** 2
        assert abs(shifted.deriv0[0] - d0_formula) <= 1e-10
        h = 1e-6
        q, b = shifted.q_star[0], shifted.offsets[0]
        fd = ((f.raw(h + q) + b) - (f.raw(-h + q) + b)) / (2 * h)
        assert abs(fd - d0_formula) <= 1e-6

    def test_small_radius_collapses_to_slopes(self, ensemble_network):
        f = rc.Sigmoid(2.0, 0.5)
        shifted = rc.fixed_point(ensemble_network, f)
        km, kp = shifted.kpair(1e-8)
        assert abs(km - shifted.deriv0.min()) <= 1e-6
        assert abs(kp - shifted.deriv0.max()) <= 1e-6

    def test_bracket_bounds_every_node(self, ensemble_network):
        f = rc.Sigmoid(2.0, 0.5)
        shifted = rc.fixed_point(ensemble_network, f)
        c = 2.0
        km, kp = shifted.kpair(c)
        r = np.linspace(-c, c, 2001)
        r = r[np.abs(r) > 1e-9]
        for q, b in zip(shifted.q_star[::7], shifted.offsets[::7]):
            ratio = (f.raw(r + q) + b) / r
            assert np.min(ratio) >= km - 1e-9
            assert np.max(ratio) <= kp + 1e-9

    def test_shift_consistency_of_trajectories(self):
        # the recentered map must be the original map in moved coordinates
        net = rc.construct_adjacency(5, seed=21)
        f = rc.Sigmoid(1.5, 0.8)
        shifted = rc.fixed_point(net, f)
        q = shifted.q_star
        r = np.full(5, 0.3)
        rbar = r - q
        for _ in range(100):
            r = np.asarray(f.raw(r)) + net.a @ r
            fbar = f.raw(rbar + q) + shifted.offsets
            rbar = fbar + net.a @ rbar
            assert np.max(np.abs((rbar + q) - r)) <= 1e-10


class TestBasinVerify:
    def test_small_ball_converges(self, two_node_system):
        net, f = two_node_system
        assert rc.basin_verify(net, f, 0.1, 200, seed=1) == 1.0

    def test_certified_ball_converges(self, two_node_system):
        net, f = two_node_system
        report = rc.cmax_continuous(f, rc.alpha_max(net.a))
        frac = rc.basin_verify(net, f, 0.99 * report.c_max, 500, seed=2)
        assert frac == 1.0

    def test_rejects_no_samples(self, two_node_system):
        net, f = two_node_system
        with pytest.raises(ValueError, match="n_samples"):
            rc.basin_verify(net, f, 0.5, 0, seed=1)

    def test_soundness_on_random_systems(self):
        # the theorem's conclusion: every certified ball is inside the basin
        rng = np.random.default_rng(14)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            m = int(rng.integers(2, 6))
            raw = rng.normal(size=(m, m))
            np.fill_diagonal(raw, 0.0)
            net = rc.ReservoirNetwork(a=raw, w=np.zeros(m))
            f = rc.Polynomial(
                (
                    float(rng.uniform(-4.0, -1.0)),
                    float(rng.uniform(-3.0, 3.0)),
                    float(rng.uniform(-2.0, -0.2)),
                )
            )
            report = rc.cmax_continuous(f, rc.alpha_max(net.a))
            if report.regime is not Regime.FINITE_REGION or report.c_max < 1e-3:
                continue
            frac = rc.basin_verify(net, f, 0.99 * report.c_max, 100, seed=checked)
            assert frac == 1.0, (f, report.c_max)
            checked += 1
        assert checked == 20


def reference_unforced(network, f, initials, t_final, dt):
    """simulate_unforced's earlier loop: one batch, the coupling through the
    transposed view network.a.T and the Horner that starts from 0."""
    r = np.array(initials, dtype=float)
    a_t = network.a.T
    coupled = np.empty_like(r)

    def rhs(_t, state, out):
        out.fill(0.0)
        for p in reversed(f.coeffs):
            out *= state
            out += p
        out *= state
        np.matmul(state, a_t, out=coupled)
        out += coupled

    stepper = rk4_steps(rhs, r, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(round(t_final / dt))):
            next(stepper)
    return r


class TestSimulateUnforced:
    def test_two_node_grid_matches_reference_loop(self, two_node_system):
        # the basin's 200 x 200 window, which simulate_unforced cuts in two
        net, f = two_node_system
        g1, g2 = np.meshgrid(*[np.linspace(-4.0, 4.0, 200)] * 2, indexing="ij")
        initials = np.column_stack([g1.ravel(), g2.ravel()])
        got = stability.simulate_unforced(net, f, initials, 2.0, 0.02)
        expected = reference_unforced(net, f, initials, 2.0, 0.02)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "t_final, dt",
        [(1.0, 0.0), (1.0, -0.02), (-5.0, 0.02), (1.0, math.nan), (math.inf, 0.02)],
    )
    def test_rejects_bad_step(self, two_node_system, t_final, dt):
        net, f = two_node_system
        with pytest.raises(ValueError):
            stability.simulate_unforced(net, f, np.zeros((3, 2)), t_final, dt)

    def test_zero_horizon_returns_initials(self, two_node_system):
        net, f = two_node_system
        initials = np.array([[0.5, -0.25]])
        assert np.array_equal(stability.simulate_unforced(net, f, initials, 0.0), initials)


class TestRetiredRows:
    """A row that a step leaves bitwise unchanged is retired from its block;
    the other rows keep stepping, with the same bits."""

    @staticmethod
    def counting(coeffs):
        """A polynomial whose evaluate records the row count of each call."""
        counts = []

        class Counting(rc.Polynomial):
            def evaluate(self, params, r, out):
                counts.append(len(r))
                return super().evaluate(params, r, out)

        return Counting(coeffs), counts

    @staticmethod
    def grid(resolution, half_width):
        g1, g2 = np.meshgrid(
            *[np.linspace(-half_width, half_width, resolution)] * 2, indexing="ij"
        )
        return np.column_stack([g1.ravel(), g2.ravel()])

    def test_settling_grid_matches_reference_loop(self, two_node_system, monkeypatch):
        net, f = two_node_system
        initials = self.grid(100, 4.0)
        monkeypatch.setattr(stability, "SPLIT_ELEMENTS", 5_000)  # 4 blocks
        got = stability.simulate_unforced(net, f, initials, 50.0, 0.02)
        expected = reference_unforced(net, f, initials, 50.0, 0.02)
        assert got.tobytes() == expected.tobytes()
        norms = np.linalg.norm(got, axis=1)
        assert np.any(norms < stability.CONVERGED_NORM)
        assert np.any(np.abs(norms - 2.952) < 1e-3)  # the settled equilibrium

    def test_blown_up_rows_match_reference_loop(self, two_node_system):
        net, _ = two_node_system
        f, counts = self.counting((-1.0, 0.0, 0.5))
        initials = np.random.default_rng(5).uniform(-3.0, 3.0, size=(2000, 2))
        got = stability.simulate_unforced(net, f, initials, 50.0, 0.02)
        expected = reference_unforced(net, f, initials, 50.0, 0.02)
        assert got.tobytes() == expected.tobytes()
        finite = np.all(np.isfinite(got), axis=1)
        assert 0 < finite.sum() < len(got)
        assert counts[-1] == finite.sum()  # every blown-up row retired

    def test_live_rows_shrink_once_rows_settle(self, two_node_system):
        net, _ = two_node_system
        f, counts = self.counting((-3.0, 4.0, -1.0))
        stability.simulate_unforced(net, f, self.grid(40, 4.0), 50.0, 0.02)
        assert counts[0] == 1600
        assert counts[-1] < counts[0]
        assert counts == sorted(counts, reverse=True)

    def test_stops_once_every_row_is_retired(self, two_node_system):
        net, _ = two_node_system
        f, counts = self.counting((-3.0, 4.0, -1.0))
        finals = stability.simulate_unforced(net, f, np.zeros((5, 2)), 50.0, 0.02)
        assert np.array_equal(finals, np.zeros((5, 2)))
        assert counts == [5] * (4 * stability.SETTLE_CHECK)

    def test_converging_rows_are_never_retired(self, two_node_system):
        net, _ = two_node_system
        f, counts = self.counting((-3.0, 4.0, -1.0))
        # inside the certified radius 1 every row converges to the origin
        finals = stability.simulate_unforced(net, f, self.grid(30, 0.7), 50.0, 0.02)
        assert np.all(np.linalg.norm(finals, axis=1) < stability.CONVERGED_NORM)
        assert counts == [900] * (4 * 2500)

    def test_error_in_f_reaches_caller(self, two_node_system):
        net, _ = two_node_system

        class Faulty(rc.Polynomial):
            def evaluate(self, params, r, out):
                if np.any(r > 100.0):
                    raise RuntimeError("faulty node")
                return super().evaluate(params, r, out)

        initials = np.zeros((30, 2))
        initials[-1] = (500.0, 0.0)
        with pytest.raises(RuntimeError, match="faulty node"):
            stability.simulate_unforced(net, Faulty((-1.0,)), initials, 1.0, 0.02)

    def test_twenty_nodes_repeat_bit_for_bit(self):
        net = rc.construct_adjacency(20, seed=3, input_coupling="signs")
        f, counts = self.counting((-3.0, 4.0, -1.0))
        initials = 2.0 * np.random.default_rng(10).normal(size=(3001, 20))
        first = stability.simulate_unforced(net, f, initials, 50.0, 0.02)
        assert min(counts) < 1500  # rows retire from both blocks
        second = stability.simulate_unforced(net, f, initials, 50.0, 0.02)
        assert first.tobytes() == second.tobytes()


class TestAnalyzeDispatch:
    def test_continuous(self, two_node_system):
        net, f = two_node_system
        report = rc.analyze(net, f, "continuous")
        assert abs(report.c_max - 1.0) <= 1e-6

    def test_discrete_sigmoid(self, ensemble_network):
        report = rc.analyze(ensemble_network, rc.Sigmoid(1.0, 0.5), "discrete")
        assert report.regime is Regime.GLOBALLY_STABLE

    def test_continuous_sigmoid_rejected(self, ensemble_network):
        with pytest.raises(ValueError):
            rc.analyze(ensemble_network, rc.Sigmoid(1.0, 0.5), "continuous")
