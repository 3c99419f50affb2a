"""Property tests: a K* bracket never over-claims.

For random dynamics and radii, f(r)/r on a dense grid of [-c, c] must stay
inside kstar_discrete(f, c), to 1e-9 relative to the bracket's scale.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rcstab as rc

coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
radius = st.floats(0.01, 10.0)
examples = settings(max_examples=200, deadline=None, derandomize=True)


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
@given(coeffs=st.lists(coefficient, min_size=1, max_size=5), c=radius)
def test_polynomial_bracket_bounds_the_ratio(coeffs, c):
    assert_bracket_holds(rc.Polynomial(tuple(coeffs)), c)


@examples
@given(p1=coefficient, p2=st.floats(1e-3, 10.0), c=radius)
def test_tanh_bracket_bounds_the_ratio(p1, p2, c):
    assert_bracket_holds(rc.ScaledTanh(p1, p2), c)
