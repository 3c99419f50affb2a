"""Scalar nodal-dynamics family and the extremal-ratio machinery.

Every reservoir node evolves under a scalar function f(r).  Three families are
supported: polynomials without constant term (so the origin stays a fixed
point of the unforced network), scaled tanh, and a logistic sigmoid.  The
sigmoid does not vanish at the origin; the stability analysis handles it
by recentring every node on the reservoir's fixed point
(`stability.ShiftedDynamics`).

The stability bounds need the extrema of the ratio f(r)/r over intervals
[-c, c].  Those extrema can only occur at four kinds of points: the two
interval endpoints, the origin limit f'(0), and interior stationary points of
the ratio, i.e. solutions of r*f'(r) - f(r) = 0 with r != 0.  This module
finds the stationary points; `stability.ShiftedDynamics.kpair` assembles the
four candidate families into the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

# Grid density for the sign-change scan used on transcendental kinds.
_SCAN_POINTS = 10_000
#: points h/2, h/4, ..., h/2**_LADDER on each side of the origin refine the
#: scan cell around it (h is the scan step).  For tanh and sigmoid the last
#: one sits at p2*r >= 1.6e-5, where the stationarity function of an odd f
#: still stands about 1e6 above its rounding; a root nearer 0 would have a
#: stationary value within about (p2*r)**2 ~ 3e-10 (relative) of fbar'(0).
_LADDER = 10
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

    def stationary_points(self) -> list[float]:
        """The nonzero real roots of r*f'(r) - f(r) = 0, ascending: every
        interior stationary point of f(r)/r, whatever the radius."""
        raise NotImplementedError

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
        """Horner from the leading term: out = pd*r, then out += p; out *= r
        for each lower coefficient p.

        This equals, bit for bit, the form that starts from 0 and takes
        out *= r; out += p for every coefficient and a last out *= r, because
        (0*r + pd)*r is pd*r for every finite r.  The one exception is a
        leading coefficient of -0.0, where f(r) may differ in the sign of a
        zero.  A non-finite r gives a non-finite f(r) in both forms.
        """
        np.multiply(r, params[-1], out=out)
        for p in reversed(params[:-1]):
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
        """Coefficients (ascending) of h(r) where r*f'(r)-f(r) = r^2 h(r),
        less every leading coefficient that is zero or below 1e-300 of
        another: np.roots would overflow building its companion matrix, and
        the root such a term adds lies beyond 1e29 (for degree <= 10)."""
        h = [(i - 1) * p for i, p in enumerate(self.coeffs, start=1)][1:]
        while h and abs(h[-1]) * 1e300 <= max(map(abs, h)):
            h.pop()
        return h

    def stationary_points(self):
        """All real roots of h, polished; [] when h is identically zero."""
        h = self._stationarity_coeffs()
        if len(h) < 2:  # h constant, no roots
            return []
        desc = h[::-1]
        slope = np.polyder(desc)
        polished = []
        for z in np.roots(desc):
            if abs(z.imag) > 1e-8 * max(1.0, abs(z)):
                continue
            x = float(z.real)
            with np.errstate(over="ignore", invalid="ignore"):  # a far root overflows
                for _ in range(8):  # Newton polish
                    d = float(np.polyval(slope, x))
                    if d == 0.0:
                        break
                    step = float(np.polyval(desc, x)) / d
                    x -= step
                    if abs(step) <= _ROOT_TOL * max(1.0, abs(x)):
                        break
            if not np.isfinite(x):
                x = float(z.real)
            if abs(x) > _ROOT_TOL and not any(
                abs(x - y) <= 1e-9 * max(1.0, abs(x)) for y in polished
            ):
                polished.append(x)
        return sorted(polished)

    def ratio_limits(self):
        """Limits of (inf, sup) of f(r)/r over [-c, c] as c grows unbounded;
        entries may be +-inf."""
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            return (0.0, 0.0)
        d = len(coeffs)
        p1 = coeffs[0]
        if d == 1:
            return (p1, p1)
        if d % 2 == 0 or len(self._stationarity_coeffs()) < d - 1:
            # the two endpoint chords diverge with opposite signs, or h lost a
            # nonzero term whose root's ratio value lies beyond float range
            return (-np.inf, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):  # far roots may overflow
            vals = [p1] + [float(self.raw(r) / r) for r in self.stationary_points()]
        if not np.all(np.isfinite(vals)):
            # a root too far out for its ratio value to fit in a float
            return (-np.inf, np.inf)
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

    def stationary_points(self):
        # u*sech^2(u) - tanh(u) is strictly negative for u > 0 (and odd), so
        # the stationarity equation has no nonzero real root.
        return []

    def to_config(self):
        return {"kind": "tanh", "p1": self.p1, "p2": self.p2}


@dataclass(frozen=True)
class Sigmoid(NodalDynamics):
    """f(r) = p1 / (1 + exp(-p2 * r)).

    f(0) = p1/2 != 0, so this kind never satisfies the homogeneous
    origin-fixed-point precondition; route it through the reservoir fixed
    point and `stability.ShiftedDynamics`.
    """

    p1: float
    p2: float

    def params(self):
        return (self.p1, self.p2)

    def evaluate(self, params, r, out):
        """exp(-p2*r) overflows to inf where -p2*r passes about 709, which
        makes f exactly 0; `raw` ignores that overflow, and the drive and
        the unforced integrator step under their own np.errstate."""
        p1, p2 = params
        np.multiply(r, p2, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(p1, out, out=out)

    def raw(self, r, out=None):
        with np.errstate(over="ignore"):
            return super().raw(r, out)

    def derivative(self, r):
        x = self.p2 * np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        out = self.p1 * self.p2 * s * (1.0 - s)
        return out if out.ndim else float(out)

    def stationary_points(self):
        return shifted_stationary_points(self, [0.0], [0.0])[0]

    def to_config(self):
        return {"kind": "sigmoid", "p1": self.p1, "p2": self.p2}


def shifted_stationary_points(base: NodalDynamics, shifts, offsets) -> list[list[float]]:
    """Interior stationary points of every fbar(r) = base(r + shift) + offset,
    one ascending list per (shift, offset): the roots of r*fbar'(r) - fbar(r)
    other than the origin.

    Each is found by a sign-change scan and bisection over the window beyond
    which its stationarity function cannot change sign: |shift| + 80/|p2|
    for tanh and sigmoid (|shift| + 1 when p2 vanishes), |shift| + 100 for
    polynomials.  The origin is a root of at least second order, so the one
    scan cell that holds it is skipped; _LADDER points on each side refine
    that cell, so a root nearer 0 than one step h still shows as a sign
    change unless it lies within h/2**_LADDER.  The sign flips of every scan
    are bisected together as one array; each element sees the operations
    and stopping rule of a scalar bisection.
    """
    shifts = np.asarray(shifts, dtype=float)
    if isinstance(base, (ScaledTanh, Sigmoid)):
        p2 = abs(base.p2)
        reach = 1.0 if p2 < 1e-9 else 80.0 / p2
    else:
        reach = 100.0

    def g(r, shift, offset):
        x = r + shift
        return r * base.derivative(x) - (base.raw(x) + offset)

    per_scan = []  # (grid roots, index of the first flip, flip count)
    lo, hi, flo, shift_of, offset_of = [], [], [], [], []
    for shift, offset, c in zip(shifts, offsets, np.abs(shifts) + reach):
        grid = np.linspace(-c, c, _SCAN_POINTS + 1)
        rungs = (2.0 * c / _SCAN_POINTS) * 0.5 ** np.arange(1, _LADDER + 1)
        grid = np.concatenate(
            [grid[grid < -rungs[0]], -rungs, rungs[::-1], grid[grid > rungs[0]]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(g(grid, shift, offset))
        if not np.all(np.isfinite(vals)):
            raise AnalysisError(
                "stationarity scan produced non-finite values",
                residual=float(np.nanmax(np.abs(vals))),
            )
        if not np.any(vals):
            # r*f'(r) - f(r) vanishes identically (e.g. a sigmoid with p1 = 0):
            # the ratio f(r)/r is constant and the endpoint chords carry it
            per_scan.append(([], len(lo), 0))
            continue
        exact = [float(r) for r in grid[vals == 0.0] if abs(r) > 1e-9]
        sign = np.sign(vals)
        flips = np.where(sign[:-1] * sign[1:] < 0)[0]
        flips = flips[(grid[flips] > 0.0) | (grid[flips + 1] < 0.0)]
        per_scan.append((exact, len(lo), flips.size))
        lo.extend(grid[flips])
        hi.extend(grid[flips + 1])
        flo.extend(vals[flips])
        shift_of.extend([shift] * flips.size)
        offset_of.extend([offset] * flips.size)

    lo, hi, flo = np.array(lo), np.array(hi), np.array(flo)
    shift_of, offset_of = np.array(shift_of), np.array(offset_of)
    live = np.arange(lo.size)
    for _ in range(200):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = g(mid, shift_of[live], offset_of[live])
        done = (fm == 0.0) | (
            (hi[live] - lo[live]) <= _ROOT_TOL * np.maximum(1.0, np.abs(mid))
        )
        lo[live[done]] = hi[live[done]] = mid[done]
        keep_lo = ~done & ((flo[live] < 0) == (fm < 0))
        lo[live[keep_lo]] = mid[keep_lo]
        flo[live[keep_lo]] = fm[keep_lo]
        move_hi = ~done & ~keep_lo
        hi[live[move_hi]] = mid[move_hi]
        live = live[~done]
    bisected = (0.5 * (lo + hi)).tolist()

    found = []
    for roots, first, count in per_scan:
        for r in bisected[first : first + count]:
            if abs(r) > 1e-9 and not any(abs(r - y) <= 1e-9 * max(1.0, abs(r)) for y in roots):
                roots.append(r)
        found.append(sorted(roots))
    return found


_PARAM_KINDS = {"tanh": ScaledTanh, "sigmoid": Sigmoid}


def from_config(cfg: dict) -> NodalDynamics:
    """Rebuild a dynamics object from its config-file form."""
    kind = cfg.get("kind")
    if kind == "polynomial":
        return Polynomial(tuple(cfg["coefficients"]))
    if kind in _PARAM_KINDS:
        return _PARAM_KINDS[kind](p1=float(cfg["p1"]), p2=float(cfg["p2"]))
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
            raise ValueError(f"{type(f).__name__} has only p1 and p2, not {name!r}")
        kwargs = {"p1": f.p1, "p2": f.p2}
        kwargs[f"p{idx}"] = value
        return type(f)(**kwargs)
    raise ValueError(f"cannot set parameters on {type(f).__name__}")
