"""Property tests: a certificate never over-claims.

For random dynamics and radii, f(r)/r on a dense grid of [-c, c] must stay
inside kstar_discrete(f, c), to 1e-9 relative to the bracket's scale.  For
random polynomials, tanh, their views recentred on random points q
(fbar_i(r) = f(r + q_i) - f(q_i)) and recentred sigmoid views:

- `ShiftedDynamics.ratio_limits` bounds every node's ratio over a wide
  window, and a recentred view's `kpair(c)` over [-c, c];
- a finite c_max found by a crossing satisfies its predicate, which fails
  just above it;
- a globally stable report has its limits inside its thresholds.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rcstab as rc
from rcstab.errors import FixedPointError
from rcstab.stability import _CMAX_CAP, Regime, ShiftedDynamics

coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
radius = st.floats(0.01, 10.0)
examples = settings(max_examples=200, deadline=None, derandomize=True)
polynomials = st.lists(coefficient, min_size=1, max_size=5).map(
    lambda c: rc.Polynomial(tuple(c))
)
tanhs = st.builds(rc.ScaledTanh, coefficient, st.floats(1e-3, 10.0))
alpha = st.floats(-5.0, 5.0)
#: diagonal adjacencies, whose shift interval is [-1 - min d, 1 - max d]
diagonal = st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3).map(np.diag)
#: |r| up to WINDOW: the wide window of the ratio-limit checks
WINDOW = 1e3
WIDE = np.concatenate(
    [np.linspace(-WINDOW, WINDOW, 20_001), np.geomspace(1e-6, WINDOW, 2_000)]
)
WIDE = np.concatenate([WIDE, -WIDE[20_001:]])
WIDE = WIDE[WIDE != 0.0]


def assert_bracket_holds(f, c):
    km, kp = rc.kstar_discrete(f, c)
    r = np.linspace(-c, c, 10_001)
    r = r[np.abs(r) > 1e-9]
    ratio = f.raw(r) / r
    tol = 1e-9 * max(1.0, abs(km), abs(kp))
    assert km <= kp
    assert np.min(ratio) >= km - tol
    assert np.max(ratio) <= kp + tol


@examples
# h(r) = 10.9 r^2 + 6.7e-259 r^3 has a root at -1.6e259, where the Newton
# polish overflows: the unpolished root stands, finite and without a warning
@example(coeffs=[0.0, 0.0, 0.0, 3.63671875, 1.6795993070540364e-259], c=1.0)
@given(coeffs=st.lists(coefficient, min_size=1, max_size=5), c=radius)
def test_polynomial_bracket_bounds_the_ratio(coeffs, c):
    f = rc.Polynomial(tuple(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(math.isfinite(r) for r in f.stationary_points())
        assert_bracket_holds(f, c)


@examples
@given(p1=coefficient, p2=st.floats(1e-3, 10.0), c=radius)
def test_tanh_bracket_bounds_the_ratio(p1, p2, c):
    assert_bracket_holds(rc.ScaledTanh(p1, p2), c)


def origin_view(f):
    return ShiftedDynamics(f, np.zeros(1), np.zeros(1))


def random_sigmoid_view(p1, p2, m, seed):
    """The recentred view of Sigmoid(p1, p2) on a random m-node network of
    spectral radius 0.7, with that network's shift interval."""
    a = np.random.default_rng(seed).normal(size=(m, m))
    a *= 0.7 / np.max(np.abs(np.linalg.eigvals(a)))
    net = rc.ReservoirNetwork(a=a, w=np.zeros(m))
    try:
        view = rc.fixed_point(net, rc.Sigmoid(p1, p2))
    except FixedPointError:
        assume(False)
    return view, rc.critical_shifts(a)


sigmoid_views = st.builds(
    random_sigmoid_view,
    coefficient,
    st.floats(-3.0, 3.0),
    st.integers(2, 3),
    st.integers(0, 2**32 - 1),
)


def recentred_view(f, q):
    """f recentred on the points q: fbar_i(r) = f(r + q_i) - f(q_i)."""
    q = np.asarray(q, dtype=float)
    return ShiftedDynamics(f, q, -f.raw(q))


recentred_views = st.builds(
    recentred_view,
    st.one_of(polynomials, tanhs),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
)


def assert_inside(view, r, lo, hi):
    """Every node's ratio on the grid r lies inside [lo, hi], to 1e-9
    relative plus what fbar_i(0) != 0 (the fixed-point residual) and the
    rounding of f(r + q) + b add after division by r."""
    for q, b in zip(view.q_star, view.offsets):
        value = view.base.raw(r + q)
        ratio = (value + b) / r
        slack = abs(view.base.raw(q) + b) + 4e-16 * (np.abs(value) + abs(b))
        tol = 1e-9 * np.maximum(1.0, np.abs(ratio)) + slack / np.abs(r)
        assert np.all(ratio >= lo - tol)
        assert np.all(ratio <= hi + tol)


def assert_limits_hold(view):
    lo, hi = view.ratio_limits()
    assert lo <= hi
    assert_inside(view, WIDE, lo, hi)


def assert_report_sound(report, view):
    """Global: the limits lie inside the thresholds.  A finite c_max below
    _CMAX_CAP / 2 came from a crossing: the bracket fits at c_max and not at
    (1 + 1e-6) c_max."""
    if isinstance(report.threshold, tuple):
        lower, upper = report.threshold
    else:
        lower, upper = -math.inf, report.threshold

    def fits(c):
        km, kp = view.kpair(c)
        return lower <= km and kp <= upper

    if report.regime is Regime.GLOBALLY_STABLE:
        lo, hi = view.ratio_limits()
        assert lower <= lo and hi <= upper
    elif report.regime is Regime.FINITE_REGION and 1e-6 < report.c_max < _CMAX_CAP / 2:
        assert fits(report.c_max)
        assert not fits((1.0 + 1e-6) * report.c_max)


@examples
@given(f=st.one_of(polynomials, tanhs))
def test_limits_bound_the_ratio(f):
    assert_limits_hold(origin_view(f))


def assert_kpair_holds(view):
    for c in (0.3, 2.0, 9.0):
        r = np.linspace(-c, c, 10_001)
        assert_inside(view, r[r != 0.0], *view.kpair(c))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(view_and_spectral=sigmoid_views)
def test_sigmoid_view_limits_and_report(view_and_spectral):
    view, spectral = view_and_spectral
    assert_limits_hold(view)
    assert_kpair_holds(view)
    assert_report_sound(rc.cmax_discrete(view, spectral), view)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(view=recentred_views)
def test_recentred_view_limits_and_kpair(view):
    assert_limits_hold(view)
    assert_kpair_holds(view)


@examples
@given(f=st.one_of(polynomials, tanhs), alpha_max=alpha)
def test_continuous_report_is_sound(f, alpha_max):
    assert_report_sound(rc.cmax_continuous(f, alpha_max), origin_view(f))


@examples
@given(f=st.one_of(polynomials, tanhs), a=diagonal)
def test_discrete_report_is_sound(f, a):
    assert_report_sound(rc.cmax_discrete(f, rc.critical_shifts(a)), origin_view(f))
