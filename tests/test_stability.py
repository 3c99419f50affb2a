"""Region analysis: K* solvers, c_max classification, fixed-point shift,
basin verification."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def reference_limits(view):
    """The earlier ratio limits: a homogeneous view took its kind's limits
    (None for a sigmoid, the min and max of 0 and p1*p2 for tanh), any other
    view the min and max of 0, its slopes and its stationary values."""
    f = view.base
    if view.homogeneous:
        if isinstance(f, rc.Polynomial):
            return f.ratio_limits()
        if isinstance(f, rc.ScaledTanh):
            d0 = f.p1 * f.p2
            return (min(d0, 0.0), max(d0, 0.0))
        return None
    vals = [0.0, float(view.deriv0.min()), float(view.deriv0.max())]
    if view._roots.size:
        vals += [float(view._root_values.min()), float(view._root_values.max())]
    return (min(vals), max(vals))


def reference_largest_admissible(pred):
    """The earlier radius search: (c, crossed), crossed False at the cap."""
    lo = stability._CMAX_START
    if not pred(lo):
        hi = lo
        while lo > 1e-15:
            lo *= 0.25
            if pred(lo):
                break
            hi = lo
        else:
            return 0.0, True
    else:
        hi = 2.0 * lo
        while pred(hi):
            lo = hi
            hi *= 2.0
            if hi > stability._CMAX_CAP:
                return lo, False
    lo, _ = stability.bisect_flip(pred, lo, hi, abs_tol=1e-15, rel_tol=1e-9)
    return lo, True


def reference_cmax_continuous(f, alpha):
    """The earlier continuous solver, as a tuple of report fields."""
    threshold = -float(alpha)
    d0 = float(f.derivative(0.0))
    if d0 > threshold:
        return (Regime.UNSTABLE, 0.0, d0, threshold, None)
    view = ShiftedDynamics(f, np.zeros(1), np.zeros(1))
    limits = reference_limits(view)
    if limits is not None and limits[1] <= threshold:
        return (Regime.GLOBALLY_STABLE, math.inf, limits[1], threshold, None)
    c_max, crossed = reference_largest_admissible(lambda c: view.kpair(c)[1] <= threshold)
    if not crossed:
        return (Regime.GLOBALLY_STABLE, math.inf, view.kpair(c_max)[1], threshold, None)
    k_at = view.kpair(c_max)[1] if c_max > 0 else d0
    return (Regime.FINITE_REGION, c_max, k_at, threshold, None)


def reference_cmax_discrete(view, spectral):
    """The earlier discrete solver, as a tuple of report fields."""
    rho_m, rho_p = spectral.rho_minus, spectral.rho_plus
    d0_min, d0_max = float(view.deriv0.min()), float(view.deriv0.max())
    threshold = (rho_m, rho_p)
    if d0_max > rho_p:
        return (Regime.UNSTABLE, 0.0, d0_max, threshold, "upper")
    if d0_min < rho_m:
        return (Regime.UNSTABLE, 0.0, d0_min, threshold, "lower")
    limits = reference_limits(view)

    def solve_side(is_upper):
        if limits is not None:
            if (is_upper and limits[1] <= rho_p) or (not is_upper and limits[0] >= rho_m):
                return math.inf
        if is_upper:
            c_side, crossed = reference_largest_admissible(lambda c: view.kpair(c)[1] <= rho_p)
        else:
            c_side, crossed = reference_largest_admissible(lambda c: view.kpair(c)[0] >= rho_m)
        return c_side if crossed else math.inf

    c_up, c_low = solve_side(True), solve_side(False)
    c_max = min(c_up, c_low)
    if math.isinf(c_max):
        lo, hi = limits if limits is not None else view.kpair(stability._CMAX_CAP)
        k_at = hi if abs(hi - rho_p) <= abs(lo - rho_m) else lo
        return (Regime.GLOBALLY_STABLE, math.inf, k_at, threshold, None)
    side = "upper" if c_up <= c_low else "lower"
    if c_max > 0:
        k_at = view.kpair(c_max)[1 if side == "upper" else 0]
    else:
        k_at = d0_max if side == "upper" else d0_min
    return (Regime.FINITE_REGION, c_max, k_at, threshold, side)


def assert_same_report(report, fields):
    """report has the reference's fields, every float compared as hex so a
    zero keeps its sign."""

    def bits(regime, c_max, k_at, threshold, side):
        bounds = threshold if isinstance(threshold, tuple) else (threshold,)
        return (regime, c_max.hex(), k_at.hex(), [b.hex() for b in bounds], side)

    got = (report.regime, report.c_max, report.kstar_at_cmax, report.threshold,
           report.binding_side)
    assert bits(*got) == bits(*fields)


class TestCmaxReference:
    """cmax_continuous and cmax_discrete equal the earlier two solvers, kept
    above as a frozen copy, bit for bit.  The two may differ only where the
    earlier ones over-claimed: a radius search that reached _CMAX_CAP (then
    reported global) and a recentred polynomial view (whose stationary
    values were read as limits); neither occurs on these inputs."""

    @pytest.mark.parametrize("name", ["cubic_sweep.json", "quartic_sweep.json"])
    def test_shipped_grids(self, name):
        cfg = json.loads((Path(__file__).parent.parent / "configs" / name).read_text())
        topo = cfg["topology"]
        net = rc.construct_adjacency(
            topo["m"], topo["seed"], topo["spectral_target"], topo["input_coupling"]
        )
        alpha, spectral = rc.alpha_max(net.a), rc.critical_shifts(net.a)
        for f in shipped_grid(name):
            assert_same_report(rc.cmax_continuous(f, alpha), reference_cmax_continuous(f, alpha))
            view = ShiftedDynamics(f, np.zeros(1), np.zeros(1))
            assert_same_report(
                rc.cmax_discrete(f, spectral), reference_cmax_discrete(view, spectral)
            )

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_tanh_discrete_cells(self, rho):
        spectral = _spectral_with_rho(rho)
        for p1 in np.linspace(-6.0, 6.0, 25):
            for p2 in (0.25, 0.5, 1.2):
                f = rc.ScaledTanh(float(p1), p2)
                view = ShiftedDynamics(f, np.zeros(1), np.zeros(1))
                assert_same_report(
                    rc.cmax_discrete(f, spectral), reference_cmax_discrete(view, spectral)
                )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sigmoid_cells(self, seed):
        net = rc.construct_adjacency(12, seed=seed, input_coupling="signs")
        spectral = rc.critical_shifts(net.a)
        for p1 in np.linspace(-6.0, 6.0, 13):
            for p2 in (0.25, 0.5, 0.75):
                view = rc.fixed_point(net, rc.Sigmoid(float(p1), p2))
                assert_same_report(
                    rc.cmax_discrete(view, spectral), reference_cmax_discrete(view, spectral)
                )


class TestNoOverClaim:
    """Crossings beyond _CMAX_CAP and recentred polynomial views report a
    finite region whose bracket fits its thresholds, never global; a
    stationary point next to the origin reaches the bracket."""

    @staticmethod
    def check(report, view):
        assert report.regime is Regime.FINITE_REGION
        assert 0.0 < report.c_max < math.inf
        km, kp = view.kpair(report.c_max)
        if isinstance(report.threshold, tuple):
            assert report.threshold[0] <= km and kp <= report.threshold[1]
        else:
            assert kp <= report.threshold

    def test_continuous_crossing_beyond_cap(self):
        # K*(c) = -1 + 1e-9 c crosses -0.5 only at c = 5e8
        f = rc.Polynomial((-1.0, 1e-9))
        self.check(rc.cmax_continuous(f, 0.5), ShiftedDynamics(f, np.zeros(1), np.zeros(1)))

    def test_discrete_crossing_beyond_cap(self):
        # K+-(c) = +-1e-9 c leave [rho-, rho+] only near c = 5e8
        f = rc.Polynomial((0.0, 1e-9))
        net = rc.construct_adjacency(100, 0, 0.5, "signs")
        report = rc.cmax_discrete(f, rc.critical_shifts(net.a))
        self.check(report, ShiftedDynamics(f, np.zeros(1), np.zeros(1)))

    def test_recentred_cubic(self):
        # fbar(r) = f(r + 0.1) - f(0.1) grows like r^3: K+(10) = 4.95 > 0.8
        f = rc.Polynomial((-0.2, 0.0, 0.05))
        view = ShiftedDynamics(f, [0.1], [-f(0.1)])
        assert view.ratio_limits() == (-math.inf, math.inf)
        report = rc.cmax_discrete(view, rc.critical_shifts(np.diag([0.2, -0.2])))
        self.check(report, view)

    def test_stationary_point_in_the_origin_scan_cell(self):
        # fbar(r)/r peaks at r = -0.099, inside the stationarity scan's cell
        # around 0 (one step is 0.13 here), 2e-7 above fbar'(0)
        f = rc.Sigmoid(0.5, 0.125)
        view = ShiftedDynamics(f, [0.066], [-f(0.066)])
        r = np.linspace(-1.0, 1.0, 20_001)
        r = r[r != 0.0]
        ratio = (f.raw(r + 0.066) - f(0.066)) / r
        assert ratio.max() > view.deriv0[0] + 1e-7
        km, kp = view.kpair(1.0)
        assert km <= ratio.min() and ratio.max() <= kp + 1e-14
        assert ratio.max() <= view.ratio_limits()[1] + 1e-14

    def test_continuous_needs_origin_fixed_point(self):
        with pytest.raises(ValueError, match="recentered"):
            rc.cmax_continuous(rc.Sigmoid(1.0, 1.0), 0.5)


def reference_fixed_point(network, f):
    """q* by the earlier fixed_point: the same homotopy, with every Newton
    step a least-squares solve and no stall exit.  Frozen as the reference
    for the LU steps."""
    m = network.m
    a, eye = network.a, np.eye(m)

    def newton(q, t):
        g = t * f.raw(q) + a @ q - q
        for _ in range(200):
            if float(np.max(np.abs(g))) <= 1e-12:
                break
            jac = t * np.diag(np.asarray(f.derivative(q))) + a - eye
            step, *_ = np.linalg.lstsq(jac, -g, rcond=None)
            norm2 = float(np.linalg.norm(g))
            damp, moved = 1.0, False
            for _ in range(40):
                trial = q + damp * step
                gt = t * f.raw(trial) + a @ trial - trial
                if np.all(np.isfinite(gt)) and float(np.linalg.norm(gt)) < norm2:
                    q, g, moved = trial, gt, True
                    break
                damp *= 0.5
            if not moved:
                break
        return q, float(np.max(np.abs(g)))

    q = np.zeros(m)
    t_done, t_try, legs = 0.0, 1.0, 0
    while t_done < 1.0 and legs < 64:
        legs += 1
        q_new, res = newton(q.copy(), t_try)
        if res <= 1e-12:
            q, t_done = q_new, t_try
            t_try = 1.0
        else:
            t_try = t_done + 0.5 * (t_try - t_done)
    assert t_done == 1.0
    return q


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.solve and np.linalg.lstsq calls."""
    calls = {"solve": 0, "lstsq": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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

    def test_exactly_singular_jacobian_takes_a_least_squares_step(self, linalg_calls):
        # J = t f'(0) - 1 = 0 at t = 1, q = 0: LU fails, lstsq steps
        net = rc.ReservoirNetwork(a=np.array([[0.0]]), w=np.zeros(1))
        f = rc.Sigmoid(4.0, 1.0)
        shifted = rc.fixed_point(net, f)
        assert linalg_calls["lstsq"] == 1 and linalg_calls["solve"] >= 1
        assert shifted.max_residual(net, f) <= 1e-10

    def test_fold_cell_solve_count(self, linalg_calls):
        # the branch from q = 0 folds near t = 0.87, so legs fail: the
        # earlier lstsq Newton took 408 solves here and the LU steps without
        # the stall exit 281
        net = rc.construct_adjacency(100, seed=7, spectral_target=0.5, input_coupling="signs")
        f = rc.Sigmoid(6.0, 0.75)
        shifted = rc.fixed_point(net, f)
        assert linalg_calls["lstsq"] == 0
        assert linalg_calls["solve"] <= 240
        assert shifted.max_residual(net, f) <= 1e-10

    @pytest.mark.parametrize(
        "seed, cells",
        [
            # the benchmark's sigmoid map, less p1 = 0 (no fixed point) and
            # its fold cell p1 = 6, p2 = 0.75, where rounding picks the branch
            *[
                (seed, [(p1, p2) for p1 in (-6.0, -3.0, 3.0, 6.0) for p2 in (0.25, 0.75)
                        if (p1, p2) != (6.0, 0.75)])
                for seed in range(4)
            ],
            # criterion 8's grid
            (0, [(float(p1), 0.5) for p1 in np.arange(-6.0, 6.5, 0.5) if p1 != 0.0]),
        ],
        ids=["benchmark-0", "benchmark-1", "benchmark-2", "benchmark-3", "criterion-8-0"],
    )
    def test_matches_least_squares_reference(self, seed, cells):
        net = rc.construct_adjacency(100, seed=seed, spectral_target=0.5, input_coupling="signs")
        spectral = rc.critical_shifts(net.a)
        for p1, p2 in cells:
            f = rc.Sigmoid(p1, p2)
            view = rc.fixed_point(net, f)
            q_ref = reference_fixed_point(net, f)
            scale = max(1.0, float(np.max(np.abs(q_ref))))
            assert np.max(np.abs(view.q_star - q_ref)) <= 1e-12 * scale, (p1, p2)
            ref = rc.cmax_discrete(ShiftedDynamics(f, q_ref, net.a @ q_ref - q_ref), spectral)
            report = rc.cmax_discrete(view, spectral)
            assert (report.regime, report.c_max) == (ref.regime, ref.c_max), (p1, p2)

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

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_radius(self, two_node_system, c):
        net, f = two_node_system
        with pytest.raises(ValueError, match="radius"):
            rc.basin_verify(net, f, c, 10, seed=1)

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
        [
            (1.0, 0.0),
            (1.0, -0.02),
            (-5.0, 0.02),
            (1.0, math.nan),
            (math.inf, 0.02),
            (1e308, 1e-10),  # the step count overflows
            (1e15, 1e-5),  # 1e20 steps, past MAX_STEPS
        ],
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

    def test_converged_retires_converging_rows(self, two_node_system):
        net, _ = two_node_system
        f, counts = self.counting((-3.0, 4.0, -1.0))
        flags = stability.converged(net, f, self.grid(30, 0.7), 50.0, 0.02)
        assert np.all(flags)
        # every row is captured within the first tenth of the 2,500 steps
        assert counts[0] == 900
        assert len(counts) < 4 * 250

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


class TestCapture:
    """`converged` stops a row once it enters a ball the step map provably
    keeps; its flags stay those of a run without capture."""

    @staticmethod
    def uncaptured_flags(net, f, initials, t_final=50.0, dt=0.02):
        finals = stability.simulate_unforced(net, f, initials, t_final, dt)
        return np.linalg.norm(finals, axis=1) < stability.CONVERGED_NORM

    def test_two_node_grid_matches_uncaptured(self, two_node_system):
        net, f = two_node_system
        assert stability._capture_radius(net, f, 0.02) == stability.CONVERGED_NORM
        initials = TestRetiredRows.grid(100, 4.0)
        flags = stability.converged(net, f, initials, 50.0, 0.02)
        assert np.array_equal(flags, self.uncaptured_flags(net, f, initials))
        assert 0 < flags.sum() < len(flags)

    @pytest.mark.parametrize("m, seed", [(5, 0), (20, 1)])
    def test_random_batch_matches_uncaptured(self, m, seed):
        net = rc.construct_adjacency(m, seed=seed, input_coupling="signs")
        assert stability._capture_radius(net, CUBIC, 0.02) == stability.CONVERGED_NORM
        initials = np.random.default_rng(seed).normal(size=(1000, m))
        flags = stability.converged(net, CUBIC, initials, 50.0, 0.02)
        assert np.array_equal(flags, self.uncaptured_flags(net, CUBIC, initials))
        assert 0 < flags.sum() < len(flags)

    @pytest.mark.parametrize(
        "f",
        [
            rc.Polynomial((-200.0,)),  # stiff: RK4 at dt = 0.02 diverges
            rc.Polynomial((0.5, 0.0, -1.0)),  # unstable origin
            rc.Sigmoid(1.0, 1.0),
            rc.ScaledTanh(-1e-4, 1e4),  # saturates inside the ball
        ],
    )
    def test_refused_and_flags_unchanged(self, two_node_system, f):
        net, _ = two_node_system
        assert stability._capture_radius(net, f, 0.02) == 0.0
        initials = np.vstack([TestRetiredRows.grid(10, 1.0), [[1e-5, 0.0]]])
        flags = stability.converged(net, f, initials, 10.0, 0.02)
        assert np.array_equal(flags, self.uncaptured_flags(net, f, initials, 10.0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
        coeffs=st.tuples(st.floats(-6.0, -0.5), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        dt=st.floats(1e-3, 0.4),
        directions=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6
        ),
    )
    def test_ball_is_kept_by_the_reference_loop(self, a, coeffs, dt, directions):
        net = rc.ReservoirNetwork(a=np.reshape(a, (2, 2)), w=np.zeros(2))
        f = rc.Polynomial(coeffs)
        tau = stability._capture_radius(net, f, dt)
        assume(tau > 0)
        initials = np.array(directions)
        norms = np.linalg.norm(initials, axis=1, keepdims=True)
        assume(np.all(norms > 1e-3))
        # on the sphere of radius tau, from just inside
        state = initials / norms * (tau * (1.0 - 1e-12))
        assume(np.all(np.linalg.norm(state, axis=1) < tau))
        for _ in range(10):  # 500 steps, checked every 50
            previous = np.linalg.norm(state, axis=1)
            state = reference_unforced(net, f, state, 50 * dt, dt)
            now = np.linalg.norm(state, axis=1)
            assert np.all(now < tau)
            assert np.all(now <= previous)


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
