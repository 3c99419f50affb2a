"""Scalar nodal-dynamics family and the extremal-ratio machinery.

Every reservoir node evolves under a scalar function f(r).  Three families are
supported: polynomials without constant term (so the origin stays a fixed
point of the unforced network), scaled tanh, and a logistic sigmoid.  The
sigmoid does not vanish at the origin; the stability analysis handles it
through a per-node shifted view (`ShiftedNode`) built around the reservoir's
actual fixed point.

The stability bounds need the extrema of the ratio f(r)/r over intervals
[-c, c].  Those extrema can only occur at four kinds of points: the two
interval endpoints, the origin limit f'(0), and interior stationary points of
the ratio, i.e. solutions of r*f'(r) - f(r) = 0 with r != 0.  This module
enumerates all four candidate families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError

# Grid density for the sign-change scan used on transcendental kinds.
_SCAN_POINTS = 10_000
_ROOT_TOL = 1e-12


class NodalDynamics:
    """Base interface for scalar node functions f(r)."""

    def params(self) -> tuple:
        """The numbers `evaluate` reads, in its order."""
        raise NotImplementedError

    def evaluate(self, params, r, out):
        """Write f(r) into out, with this kind's parameters taken from params.

        Each parameter may be a float or an array shaped like r that gives
        every element its own value; an element sees the same operations, in
        the same order, either way.  out must not be r.
        """
        raise NotImplementedError

    def raw(self, r, out=None):
        """Evaluate f elementwise with no finiteness checks, into out if given."""
        r = np.asarray(r, dtype=float)
        return self.evaluate(self.params(), r, np.empty_like(r) if out is None else out)

    def derivative(self, r):
        """Evaluate f' elementwise (analytic form)."""
        raise NotImplementedError

    def __call__(self, r):
        """Evaluate f(r); raises OverflowError if a finite input overflows."""
        r = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(r)):
            raise ValueError("non-finite argument to nodal dynamics")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.raw(r)
        if not np.all(np.isfinite(out)):
            raise OverflowError(f"{self!r} overflowed at |r| ~ {np.max(np.abs(r)):g}")
        return out if out.ndim else float(out)

    def origin_fixed(self) -> bool:
        """True when f(0) = 0, the precondition of the homogeneous analysis."""
        return abs(float(self.raw(np.float64(0.0)))) <= 1e-14

    def interior_stationary_points(self, c: float) -> list[float]:
        """Roots of r*f'(r) - f(r) = 0 in [-c, c] excluding the origin."""
        raise NotImplementedError

    def ratio_limits(self):
        """Limits of (inf, sup) of f(r)/r over [-c, c] as c grows unbounded.

        Returns None when the ratio has no well-defined limit structure for
        this kind (sigmoid around the origin); entries may be +-inf.
        """
        return None

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Polynomial(NodalDynamics):
    """f(r) = p1*r + p2*r^2 + ... + pd*r^d  (no constant term)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if len(c) < 1:
            raise ValueError("polynomial needs at least the linear coefficient p1")
        if not all(np.isfinite(c)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def params(self):
        return self.coeffs

    def evaluate(self, params, r, out):
        out.fill(0.0)
        for p in reversed(params):
            out *= r
            out += p
        out *= r
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        acc = np.zeros_like(r)
        for i, p in reversed(list(enumerate(self.coeffs, start=1))):
            acc = acc * r + i * p
        return acc if acc.ndim else float(acc)

    def _stationarity_coeffs(self):
        """Coefficients (ascending) of h(r) where r*f'(r)-f(r) = r^2 h(r)."""
        return [(i - 1) * p for i, p in enumerate(self.coeffs, start=1)][1:]

    def _stationary_roots_real(self):
        """All real roots of h, polished; [] when h is identically zero."""
        h = self._stationarity_coeffs()
        while h and h[-1] == 0.0:
            h.pop()
        if not h or all(x == 0.0 for x in h):
            return []
        if len(h) == 1:
            # h constant and nonzero: no roots
            return []
        roots = np.roots(h[::-1])
        real = [float(z.real) for z in roots if abs(z.imag) <= 1e-8 * max(1.0, abs(z))]

        def h_val(x):
            acc = 0.0
            for a in reversed(h):
                acc = acc * x + a
            return acc

        def h_der(x):
            acc = 0.0
            for k, a in reversed(list(enumerate(h))):
                if k == 0:
                    continue
                acc = acc * x + k * a
            return acc

        polished = []
        for x in real:
            for _ in range(8):
                d = h_der(x)
                if d == 0.0:
                    break
                step = h_val(x) / d
                x -= step
                if abs(step) <= _ROOT_TOL * max(1.0, abs(x)):
                    break
            if abs(x) > _ROOT_TOL and not any(
                abs(x - y) <= 1e-9 * max(1.0, abs(x)) for y in polished
            ):
                polished.append(x)
        return sorted(polished)

    def interior_stationary_points(self, c):
        return [r for r in self._stationary_roots_real() if -c <= r <= c]

    def ratio_limits(self):
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            return (0.0, 0.0)
        d = len(coeffs)
        p1 = coeffs[0]
        if d == 1:
            return (p1, p1)
        if d % 2 == 0:
            # the two endpoint chords diverge with opposite signs
            return (-np.inf, np.inf)
        vals = [p1] + [float(self.raw(r) / r) for r in self._stationary_roots_real()]
        if coeffs[-1] > 0.0:
            return (min(vals), np.inf)
        return (-np.inf, max(vals))

    def to_config(self):
        return {"kind": "polynomial", "coefficients": list(self.coeffs)}


@dataclass(frozen=True)
class ScaledTanh(NodalDynamics):
    """f(r) = p1 * tanh(p2 * r) with p2 > 0."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (self.p2 > 0):
            raise ValueError("scaled tanh requires p2 > 0")

    def params(self):
        return (self.p1, self.p2)

    def evaluate(self, params, r, out):
        p1, p2 = params
        np.multiply(r, p2, out=out)
        np.tanh(out, out=out)
        out *= p1
        return out

    def derivative(self, r):
        t = np.tanh(self.p2 * np.asarray(r, dtype=float))
        out = self.p1 * self.p2 * (1.0 - t * t)
        return out if out.ndim else float(out)

    def interior_stationary_points(self, c):
        # u*sech^2(u) - tanh(u) is strictly negative for u > 0 (and odd), so
        # the stationarity equation has no nonzero real root.
        return []

    def ratio_limits(self):
        d0 = self.p1 * self.p2
        return (min(d0, 0.0), max(d0, 0.0))

    def to_config(self):
        return {"kind": "tanh", "p1": self.p1, "p2": self.p2}


@dataclass(frozen=True)
class Sigmoid(NodalDynamics):
    """f(r) = p1 / (1 + exp(-p2 * r)).

    f(0) = p1/2 != 0, so this kind never satisfies the homogeneous
    origin-fixed-point precondition; route it through the reservoir fixed
    point and `ShiftedNode`.
    """

    p1: float
    p2: float

    def params(self):
        return (self.p1, self.p2)

    def evaluate(self, params, r, out):
        p1, p2 = params
        np.multiply(r, p2, out=out)
        np.negative(out, out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out += 1.0
        return np.divide(p1, out, out=out)

    def derivative(self, r):
        x = self.p2 * np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        out = self.p1 * self.p2 * s * (1.0 - s)
        return out if out.ndim else float(out)

    def interior_stationary_points(self, c):
        return _scan_stationary_points(self, c)

    def to_config(self):
        return {"kind": "sigmoid", "p1": self.p1, "p2": self.p2}


@dataclass(frozen=True)
class ShiftedNode(NodalDynamics):
    """Per-node view fbar(r) = f(r + shift) + offset after a fixed-point move.

    With `offset = (A q*)_i - q*_i` the construction makes fbar(0) = 0 up to
    the fixed-point residual, which restores the homogeneous analysis around
    the reservoir's true operating point.
    """

    base: NodalDynamics
    shift: float
    offset: float

    def params(self):
        return (self.shift, self.offset, *self.base.params())

    def evaluate(self, params, r, out):
        shift, offset, *base = params
        self.base.evaluate(base, r + shift, out)
        out += offset
        return out

    def derivative(self, r):
        return self.base.derivative(np.asarray(r, dtype=float) + self.shift)

    def interior_stationary_points(self, c):
        if self.shift == 0.0 and self.offset == 0.0:
            return self.base.interior_stationary_points(c)
        return _scan_stationary_points(self, c)

    def scan_halfwidth(self) -> float:
        """Window beyond which the stationarity function cannot change sign."""
        base = self.base
        if isinstance(base, (ScaledTanh, Sigmoid)):
            p2 = abs(base.p2)
            if p2 < 1e-9:
                return abs(self.shift) + 1.0
            return abs(self.shift) + 80.0 / p2
        return abs(self.shift) + 100.0

    def ratio_limits(self):
        if self.shift == 0.0 and self.offset == 0.0:
            return self.base.ratio_limits()
        if isinstance(self.base, Polynomial):
            return None
        # bounded base: endpoint chords decay to zero, so the limiting
        # extrema are attained among f'(0), interior stationary values and 0.
        vals = [0.0, float(self.derivative(0.0))]
        for r in _scan_stationary_points(self, self.scan_halfwidth()):
            vals.append(float(self.raw(r) / r))
        return (min(vals), max(vals))

    def to_config(self):
        return {
            "kind": "shifted",
            "base": self.base.to_config(),
            "shift": self.shift,
            "offset": self.offset,
        }


def _scan_stationary_points(f: NodalDynamics, c: float) -> list[float]:
    """Sign-change scan + bisection for roots of r*f'(r) - f(r) on [-c, c]\\{0}.

    The origin is always a (at least) double root of the stationarity function
    for shifted kinds, so it produces no sign change and is excluded naturally.
    """

    def g(r):
        r = np.asarray(r, dtype=float)
        return r * f.derivative(r) - f.raw(r)

    grid = np.linspace(-c, c, _SCAN_POINTS + 1)
    grid = grid[np.abs(grid) > 1e-14 * max(1.0, c)]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(grid))
    if not np.all(np.isfinite(vals)):
        raise AnalysisError(
            "stationarity scan produced non-finite values",
            residual=float(np.nanmax(np.abs(vals))),
        )
    if not np.any(vals):
        # r*f'(r) - f(r) vanishes identically (e.g. a sigmoid with p1 = 0): the
        # ratio f(r)/r is constant and the endpoint chords already carry it
        return []
    roots: list[float] = []
    sign = np.sign(vals)
    exact = np.where(vals == 0.0)[0]
    for i in exact:
        r = float(grid[i])
        if abs(r) > 1e-9:
            roots.append(r)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        lo, hi = float(grid[i]), float(grid[i + 1])
        if lo <= 0.0 <= hi:
            continue
        flo = float(vals[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = float(g(mid))
            if fm == 0.0 or (hi - lo) <= _ROOT_TOL * max(1.0, abs(mid)):
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


@dataclass(frozen=True)
class RatioCandidates:
    """The four candidate families for extrema of f(r)/r on [-c, c]."""

    at_plus_c: float
    at_minus_c: float
    at_zero: float
    interior: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def values(self) -> list[float]:
        return [self.at_plus_c, self.at_minus_c, self.at_zero] + [
            v for _, v in self.interior
        ]

    @property
    def maximum(self) -> float:
        return max(self.values())

    @property
    def minimum(self) -> float:
        return min(self.values())


def ratio_candidates(f: NodalDynamics, c: float) -> RatioCandidates:
    """Enumerate every possible extremum of f(r)/r over [-c, c]."""
    if not c > 0:
        raise ValueError(f"radius must be positive, got {c}")
    if not f.origin_fixed():
        raise ValueError(
            "ratio candidates require f(0) = 0; use the fixed-point shift "
            "for dynamics that do not vanish at the origin"
        )
    c = float(c)
    roots = f.interior_stationary_points(c)
    interior = tuple((r, float(f.raw(r) / r)) for r in roots)
    return RatioCandidates(
        at_plus_c=float(f.raw(c) / c),
        at_minus_c=float(f.raw(-c) / -c),
        at_zero=float(f.derivative(0.0)),
        interior=interior,
    )


_PARAM_KINDS = {"tanh": ScaledTanh, "sigmoid": Sigmoid}


def from_config(cfg: dict) -> NodalDynamics:
    """Rebuild a dynamics object from its config-file form."""
    kind = cfg.get("kind")
    if kind == "polynomial":
        return Polynomial(tuple(cfg["coefficients"]))
    if kind in _PARAM_KINDS:
        return _PARAM_KINDS[kind](p1=float(cfg["p1"]), p2=float(cfg["p2"]))
    if kind == "shifted":
        return ShiftedNode(
            base=from_config(cfg["base"]),
            shift=float(cfg["shift"]),
            offset=float(cfg["offset"]),
        )
    raise ValueError(f"unknown dynamics kind: {kind!r}")


def with_param(f: NodalDynamics, name: str, value: float) -> NodalDynamics:
    """Return a copy of f with one named coefficient replaced.

    Names follow the convention p1, p2, ... For polynomials pN is the degree-N
    coefficient (extending the degree when needed); for tanh/sigmoid only p1
    and p2 exist.
    """
    if not name.startswith("p"):
        raise ValueError(f"parameter names look like 'p3'; got {name!r}")
    idx = int(name[1:])
    if idx < 1:
        raise ValueError(f"parameter index must be >= 1; got {name!r}")
    value = float(value)
    if isinstance(f, Polynomial):
        coeffs = list(f.coeffs)
        while len(coeffs) < idx:
            coeffs.append(0.0)
        coeffs[idx - 1] = value
        return Polynomial(tuple(coeffs))
    if isinstance(f, (ScaledTanh, Sigmoid)):
        if idx not in (1, 2):
            raise ValueError(f"{type(f).__name__} has only p1 and p2")
        kwargs = {"p1": f.p1, "p2": f.p2}
        kwargs[f"p{idx}"] = value
        return type(f)(**kwargs)
    raise ValueError(f"cannot set parameters on {type(f).__name__}")
