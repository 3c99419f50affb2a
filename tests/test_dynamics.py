"""Nodal dynamics family, its stationary points and the K* bracket they feed."""

import math

import numpy as np
import pytest

from rcstab.dynamics import (
    Polynomial,
    ScaledTanh,
    Sigmoid,
    from_config,
    shifted_stationary_points,
    with_param,
)
from rcstab.network import construct_adjacency
from rcstab.stability import ShiftedDynamics, fixed_point, kstar_continuous, kstar_discrete

CUBIC = Polynomial((-3.0, 4.0, -1.0))


class TestEvaluation:
    def test_polynomial_anchor(self):
        assert CUBIC(1.0) == 0.0

    def test_tanh_at_origin(self):
        assert ScaledTanh(-2.0, 0.5)(0.0) == 0.0

    def test_flat_sigmoid_is_constant_half(self):
        f = Sigmoid(1.0, 0.0)
        for r in (-5.0, 0.0, 17.3):
            assert f(r) == 0.5

    def test_polynomial_overflow(self):
        with pytest.raises(OverflowError):
            Polynomial((1.0, 0.0, 0.0, 0.0, 1.0))(1e200)

    def test_vectorized(self):
        r = np.linspace(-2, 2, 7)
        out = CUBIC(r)
        assert out.shape == r.shape


def reference_horner(params, r):
    """Polynomial.evaluate's earlier form: from 0, out *= r; out += p for
    every coefficient, leading first, then a last out *= r."""
    out = np.zeros_like(r)
    for p in reversed(params):
        out *= r
        out += p
    out *= r
    return out


class TestHorner:
    """Polynomial.evaluate, which starts from pd*r, equals the fill-based
    Horner bit for bit on finite r."""

    R = np.concatenate(
        [np.linspace(-5.0, 5.0, 1001), [0.0, -0.0, 5e-324, -1e-300, 1e80, -1e150]]
    )
    COEFFS = [
        (-3.0,),
        (0.0,),
        (-3.0, 4.0, -1.0),
        (1.0, 0.0, 0.0, 0.0, 1.0),  # zero inner coefficients
        (-3.0, 4.0, -1.0, 0.0),  # zero leading coefficient
        (0.0, -2.0, 0.0),
    ]

    @staticmethod
    def same_bits(got, expected):
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("coeffs", COEFFS)
    def test_tuple_params(self, coeffs):
        with np.errstate(over="ignore", invalid="ignore"):
            got = Polynomial(coeffs).raw(self.R)
            self.same_bits(got, reference_horner(coeffs, self.R))

    def test_per_element_params(self):
        # the (n_params, slots, m) layout reservoir.drive_cells passes
        cells = [c + (0.0,) * (5 - len(c)) for c in self.COEFFS]
        params = np.stack([np.array(c)[:, None] * np.ones(7) for c in cells], axis=1)
        r = np.random.default_rng(5).uniform(-3.0, 3.0, size=(len(cells), 7))
        r[0, 0], r[1, 1], r[2, 2] = 0.0, -0.0, 1e80
        out = np.empty_like(r)
        with np.errstate(over="ignore", invalid="ignore"):
            CUBIC.evaluate(params, r, out)
            self.same_bits(out, reference_horner(params, r))

    @pytest.mark.parametrize("coeffs", COEFFS)
    def test_non_finite_stays_non_finite(self, coeffs):
        r = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.any(np.isfinite(Polynomial(coeffs).raw(r)))
            assert not np.any(np.isfinite(reference_horner(coeffs, r)))

    def test_negative_zero_leading_coefficient(self):
        # the one exception: f(r) may differ in the sign of a zero
        coeffs = (-0.0,)
        got = Polynomial(coeffs).raw(self.R)
        expected = reference_horner(coeffs, self.R)
        assert np.array_equal(got, expected)
        assert got.tobytes() != expected.tobytes()


class TestDerivative:
    def test_polynomial_at_zero(self):
        assert CUBIC.derivative(0.0) == -3.0

    def test_tanh_at_zero(self):
        f = ScaledTanh(-2.0, 0.5)
        assert f.derivative(0.0) == -2.0 * 0.5

    def test_sigmoid_at_zero(self):
        # d/dr p1/(1+e^(-p2 r)) at 0 is p1*p2/4
        f = Sigmoid(3.0, 1.7)
        assert abs(f.derivative(0.0) - 3.0 * 1.7 / 4.0) <= 1e-14

    @pytest.mark.parametrize(
        "f",
        [
            CUBIC,
            Polynomial((0.5, 0.0, -0.2, 0.1)),
            ScaledTanh(1.3, 0.8),
            Sigmoid(-2.0, 1.1),
        ],
    )
    def test_matches_central_difference(self, f):
        rng = np.random.default_rng(11)
        h = 1e-6
        for r in rng.uniform(-10, 10, size=100):
            approx = (f.raw(r + h) - f.raw(r - h)) / (2 * h)
            exact = f.derivative(r)
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) <= 1e-6 * scale


class TestStationarityRoots:
    def test_cubic_interior_root(self):
        roots = CUBIC.stationary_points()
        assert len(roots) == 1
        # closed form -p2/(2 p3)
        assert abs(roots[0] - 2.0) <= 1e-10
        r = roots[0]
        resid = r * CUBIC.derivative(r) - float(CUBIC.raw(r))
        assert abs(resid) <= 1e-9 * max(1.0, abs(float(CUBIC.raw(r))))

    def test_cubic_root_outside_small_interval(self):
        # the root at r = 2 carries the ratio's maximum 1.0; below c = 2 it
        # is no candidate and the chord at +c binds
        assert kstar_continuous(CUBIC, 1.9) == float(CUBIC.raw(1.9) / 1.9) < 1.0

    def test_linear_degenerate(self):
        assert Polynomial((-3.0,)).stationary_points() == []

    def test_tanh_has_none(self):
        assert ScaledTanh(-2.0, 0.5).stationary_points() == []

    def test_tanh_none_by_brute_force(self):
        # independent oracle: scan the stationarity function on a dense grid,
        # one half-line at a time (the origin root itself is excluded by
        # definition)
        f = ScaledTanh(-2.0, 0.5)
        for r in (np.linspace(1e-9, 4, 50_001), np.linspace(-4, -1e-9, 50_001)):
            g = r * f.derivative(r) - f.raw(r)
            assert not np.any(np.sign(g[:-1]) * np.sign(g[1:]) < 0)

    def test_quintic_roots_verified(self):
        f = Polynomial((-1.0, 2.0, 0.5, -0.3, -0.2))
        roots = f.stationary_points()
        assert roots
        for r in roots:
            resid = r * f.derivative(r) - float(f.raw(r))
            assert abs(resid) <= 1e-9 * max(1.0, abs(float(f.raw(r))))

    def test_negligible_leading_coefficient(self):
        # h(r) = 1 + 4.45e-313 r: np.roots' companion matrix would hold -inf;
        # the root near -2e312 is dropped and the bracket stays finite
        f = Polynomial((0.0, 1.0, 2.2250738585e-313))
        assert f.stationary_points() == []
        assert kstar_discrete(f, 1.0) == (-1.0, 1.0)

    def test_flat_sigmoid_has_none(self):
        # p1 = 0 makes r*f'(r) - f(r) vanish identically: no grid point is a root
        assert Sigmoid(0.0, 0.5).stationary_points() == []


def reference_halfwidth(base, q):
    """The per-node scan window: |q| + 80/|p2| for tanh and sigmoid (|q| + 1
    when p2 vanishes), |q| + 100 for polynomials."""
    if isinstance(base, (ScaledTanh, Sigmoid)):
        p2 = abs(base.p2)
        return abs(q) + (1.0 if p2 < 1e-9 else 80.0 / p2)
    return abs(q) + 100.0


def reference_scan(base, q, b, c):
    """The per-node scalar sign-change scan and bisection, over [-c, c], of
    r*fbar'(r) - fbar(r) with fbar(r) = base(r + q) + b, which
    `shifted_stationary_points` batches across nodes."""

    def g(r):
        r = np.asarray(r, dtype=float)
        return r * base.derivative(r + q) - (base.raw(r + q) + b)

    grid = np.linspace(-c, c, 10_001)
    rungs = [c / 10_000 / 2.0**k for k in range(10)]  # step / 2, ..., step / 2**10
    grid = np.array(
        [x for x in grid if x < -rungs[0]]
        + [-x for x in rungs]
        + rungs[::-1]
        + [x for x in grid if x > rungs[0]]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(grid))
    if not np.any(vals):
        return []
    roots = [float(grid[i]) for i in np.where(vals == 0.0)[0] if abs(grid[i]) > 1e-9]
    sign = np.sign(vals)
    for i in np.where(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        if lo <= 0.0 <= hi:
            continue
        flo = float(vals[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = float(g(mid))
            if fm == 0.0 or (hi - lo) <= 1e-12 * max(1.0, abs(mid)):
                lo = hi = mid
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        r = 0.5 * (lo + hi)
        if abs(r) > 1e-9 and not any(abs(r - y) <= 1e-9 * max(1.0, abs(r)) for y in roots):
            roots.append(r)
    return sorted(roots)


class TestBatchedStationaryPoints:
    """All nodes' sign flips bisected as one array give the roots of the
    per-node scalar bisection, bit for bit, and `ShiftedDynamics` reads its
    per-node slopes, roots and root values off them as a per-node scalar
    computation would."""

    @staticmethod
    def check(base, shifts, offsets):
        expected = [
            reference_scan(base, q, b, reference_halfwidth(base, q))
            for q, b in zip(shifts, offsets)
        ]
        assert shifted_stationary_points(base, shifts, offsets) == expected

        shifted = ShiftedDynamics(base, shifts, offsets)
        deriv0 = np.array([base.derivative(np.asarray(0.0) + q) for q in shifts])
        roots = [r for rs in expected for r in rs]
        values = [
            float((base.raw(r + q) + b) / r)
            for q, b, rs in zip(shifts, offsets, expected)
            for r in rs
        ]
        assert shifted.deriv0.tobytes() == deriv0.tobytes()
        assert shifted._roots.tolist() == roots
        assert shifted._root_values.tolist() == values
        return expected

    @pytest.mark.parametrize("p1, p2", [(2.0, 0.5), (-4.0, 0.75), (6.0, 0.25)])
    def test_shifted_sigmoid_network(self, p1, p2):
        net = construct_adjacency(100, seed=0, input_coupling="signs")
        shifted = fixed_point(net, Sigmoid(p1, p2))
        roots = self.check(shifted.base, shifted.q_star.tolist(), shifted.offsets.tolist())
        assert sum(map(len, roots)) > 0

    def test_shifted_tanh_with_flipless_and_unmoved_nodes(self):
        rng = np.random.default_rng(4)
        base = ScaledTanh(1.3, 0.9)
        shifts, offsets = (col.tolist() for col in rng.normal(0.0, 0.5, (12, 2)).T)
        shifts.insert(3, 0.2)  # |offset| > p1: no sign flip
        offsets.insert(3, 1.5)
        shifts.insert(7, 0.0)  # unmoved: tanh has no interior stationary point
        offsets.insert(7, 0.0)
        roots = self.check(base, shifts, offsets)
        assert roots[3] == [] and roots[7] == []
        assert sum(map(len, roots)) >= 12

    def test_flat_sigmoid(self):
        base = Sigmoid(0.0, 0.5)
        assert self.check(base, [0.3, -1.2], [0.0, 0.0]) == [[], []]
        window = reference_halfwidth(base, 0.0)
        assert base.stationary_points() == reference_scan(base, 0.0, 0.0, window) == []


class TestRatioCandidates:
    """The K* bracket is the min and max of four candidate families: the
    chords at +c and -c, f'(0), and f(r)/r at the stationary points inside
    [-c, c]."""

    def test_cubic_small_interval(self):
        # chords 0 at +1 and -8 at -1, f'(0) = -3, no stationary point inside
        assert kstar_discrete(CUBIC, 1.0) == (-8.0, 0.0)

    def test_cubic_interior_active(self):
        km, kp = kstar_discrete(CUBIC, 3.0)
        assert km == -24.0  # the chord at -3
        # p1 - p2^2/(4 p3), taken at the stationary point r = 2
        assert abs(kp - 1.0) <= 1e-10

    def test_tanh_candidates(self):
        km, kp = kstar_discrete(ScaledTanh(-2.0, 0.5), 1.0)
        assert km == -1.0  # f'(0)
        assert abs(kp - (-2.0 * math.tanh(0.5))) <= 1e-12

    def test_sigmoid_rejected_without_shift(self):
        with pytest.raises(ValueError):
            kstar_discrete(Sigmoid(1.0, 1.0), 1.0)

    @pytest.mark.parametrize(
        "f",
        [
            CUBIC,
            Polynomial((1.0, -2.0, 0.0, 0.5)),
            Polynomial((0.2, 0.0, 0.0, 0.0, -1.0)),
            ScaledTanh(2.5, 1.2),
        ],
    )
    @pytest.mark.parametrize("c", [0.3, 1.0, 4.7])
    def test_candidates_bound_the_ratio(self, f, c):
        km, kp = kstar_discrete(f, c)
        r = np.linspace(-c, c, 10_001)
        r = r[np.abs(r) > 1e-9]
        ratio = f.raw(r) / r
        assert np.max(ratio) <= kp + 1e-9
        assert np.min(ratio) >= km - 1e-9

    def test_odd_polynomial_symmetry(self):
        # f(r)/r is even for an odd f: its stationary points come in +-
        # pairs and the chord at -c repeats the one at +c, so the half-line
        # candidates alone give the bracket
        f = Polynomial((-1.5, 0.0, 0.25, 0.0, -2.0))
        roots = f.stationary_points()
        assert len(roots) == 2
        assert np.allclose(roots, [-r for r in reversed(roots)], rtol=0.0, atol=1e-12)
        for c in (0.5, 1.0, 3.75):
            half = [float(f.raw(c) / c), f.derivative(0.0)]
            half += [float(f.raw(r) / r) for r in roots if 0.0 < r <= c]
            assert kstar_discrete(f, c) == (min(half), max(half))


class TestRatioLimits:
    def test_linear(self):
        assert Polynomial((-3.0,)).ratio_limits() == (-3.0, -3.0)

    def test_even_degree_unbounded_both_sides(self):
        lo, hi = Polynomial((-3.0, 0.0, -1.0, 0.5)).ratio_limits()
        assert lo == -math.inf and hi == math.inf

    def test_cubic_negative_leading(self):
        lo, hi = CUBIC.ratio_limits()
        assert lo == -math.inf
        assert abs(hi - 1.0) <= 1e-10  # p1 - p2^2/(4 p3)

    def test_cubic_positive_leading(self):
        lo, hi = Polynomial((-3.0, 4.0, 1.0)).ratio_limits()
        assert hi == math.inf
        # global min of the ratio at r = -p2/(2 p3) = -2: -3 - 16/4 = -7
        assert abs(lo - (-7.0)) <= 1e-10

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 2.2250738585e-313), (-1.0, 1.0, -1e-305)])
    def test_negligible_leading_coefficient_unbounded(self, coeffs):
        # the stationary value of the far root lies beyond float range, so
        # neither limit may be taken from the remaining roots
        assert Polynomial(coeffs).ratio_limits() == (-math.inf, math.inf)

    def test_tanh(self):
        # a bounded kind's limits come from its view: 0 and the slope p1*p2
        def limits(f):
            return ShiftedDynamics(f, np.zeros(1), np.zeros(1)).ratio_limits()

        assert limits(ScaledTanh(-2.0, 0.5)) == (-1.0, 0.0)
        assert limits(ScaledTanh(2.0, 0.5)) == (0.0, 1.0)


class TestConfigAndParams:
    def test_roundtrip(self):
        for f in (CUBIC, ScaledTanh(1.0, 2.0), Sigmoid(-1.0, 0.5)):
            assert from_config(f.to_config()) == f

    def test_with_param_polynomial_extends(self):
        f = with_param(Polynomial((-3.0,)), "p4", 0.7)
        assert f.coeffs == (-3.0, 0.0, 0.0, 0.7)

    def test_with_param_tanh(self):
        f = with_param(ScaledTanh(1.0, 2.0), "p1", -4.0)
        assert f == ScaledTanh(-4.0, 2.0)

    def test_with_param_rejects_unknown(self):
        with pytest.raises(ValueError):
            with_param(ScaledTanh(1.0, 2.0), "p3", 1.0)

    def test_tanh_requires_positive_slope(self):
        with pytest.raises(ValueError):
            ScaledTanh(1.0, -0.5)

    def test_polynomial_requires_coefficients(self):
        with pytest.raises(ValueError):
            Polynomial(())
