"""Stability-region analysis for continuous- and discrete-time reservoirs.

Continuous time: the unforced reservoir is certified stable on the ball of
radius c whenever the tightest quadratic bound K*(c) on the nodal ratio
f(r)/r satisfies K*(c) <= -alpha_max, where alpha_max is the top eigenvalue
of the symmetric part of the adjacency matrix.  K* is nondecreasing in c, so
the certified radius c_max solves K*(c_max) = -alpha_max by bisection.

Discrete time: the ratio must be bracketed, K-*(c) <= f(r)/r <= K+*(c), and
the brackets must fit inside the admissible spectrum-shift interval
[rho_minus, rho_plus] determined by how far the adjacency eigenvalues can
move along the real axis while staying inside the unit circle.  Each side
yields its own radius; the certified radius is the smaller one.

Dynamics that do not vanish at the origin (the sigmoid) are first recentered
on the reservoir's actual fixed point, which makes the per-node functions
non-homogeneous; the brackets then aggregate per-node candidates by min/max.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NodalDynamics,
    ShiftedNode,
    ratio_candidates,
)
from .errors import FixedPointError, InfeasibleTopologyError
from .network import ReservoirNetwork, SpectralSummary, alpha_max, critical_shifts
from .signals import rk4_steps

_CMAX_REL_TOL = 1e-9
_CMAX_CAP = 1e6
_CMAX_START = 1e-3
#: final-state norm below which an unforced trajectory counts as converged
CONVERGED_NORM = 1e-4


class Regime(str, enum.Enum):
    GLOBALLY_STABLE = "globally_stable"
    FINITE_REGION = "finite_region"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a region analysis.

    c_max is +inf for global stability and 0.0 for an unstable operating
    point; kstar_at_cmax is the binding bound evaluated at c_max (the
    limiting bound for the global case).  threshold is -alpha_max for
    continuous time or the pair (rho_minus, rho_plus) for discrete time.
    binding_side tells which discrete bracket fixed c_max.
    """

    regime: Regime
    c_max: float
    kstar_at_cmax: float
    threshold: float | tuple[float, float]
    binding_side: str | None = None

    @property
    def globally_stable(self) -> bool:
        return self.regime is Regime.GLOBALLY_STABLE


def kstar_continuous(f: NodalDynamics, c: float) -> float:
    """Tightest K with r*f(r) <= K*r^2 on [-c, c]: the max ratio candidate."""
    return ratio_candidates(f, c).maximum


def kstar_discrete(f: NodalDynamics, c: float) -> tuple[float, float]:
    """Tightest bracket (K-, K+) of f(r)/r over [-c, c]."""
    cands = ratio_candidates(f, c)
    return (cands.minimum, cands.maximum)


def bisect_flip(pred, lo: float, hi: float, abs_tol: float, rel_tol: float = 0.0):
    """Narrow [lo, hi] around the single flip of pred, where pred(lo) holds and
    pred(hi) does not, until hi - lo <= max(rel_tol * max(lo, 1e-12), abs_tol).

    Returns the final (lo, hi); pred still holds at lo and fails at hi.
    """
    while (hi - lo) > max(rel_tol * max(lo, 1e-12), abs_tol):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _largest_admissible(pred, start=_CMAX_START, cap=_CMAX_CAP):
    """Largest c with pred(c) true, assuming pred flips true->false once.

    Returns (c, crossed); crossed is False when the cap was reached with the
    predicate still true everywhere (no finite boundary found).
    """
    lo = start
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
            if hi > cap:
                return lo, False
    lo, _ = bisect_flip(pred, lo, hi, abs_tol=1e-15, rel_tol=_CMAX_REL_TOL)
    return lo, True


def cmax_continuous(f: NodalDynamics, alpha_max_value: float) -> StabilityReport:
    """Classify the continuous-time regime and solve for the radius.

    Unstable when the slope at the origin already violates the threshold;
    globally stable when the limiting supremum of K* stays at or below it;
    otherwise the unique crossing radius is found by expanding bracket plus
    bisection (valid because K* is nondecreasing in c).
    """
    threshold = -float(alpha_max_value)
    d0 = float(f.derivative(0.0))
    if d0 > threshold:
        return StabilityReport(
            regime=Regime.UNSTABLE,
            c_max=0.0,
            kstar_at_cmax=d0,
            threshold=threshold,
        )
    limits = f.ratio_limits()
    sup = limits[1] if limits is not None else None
    if sup is not None and sup <= threshold:
        return StabilityReport(
            regime=Regime.GLOBALLY_STABLE,
            c_max=math.inf,
            kstar_at_cmax=sup,
            threshold=threshold,
        )
    c_max, crossed = _largest_admissible(
        lambda c: kstar_continuous(f, c) <= threshold
    )
    if not crossed:
        return StabilityReport(
            regime=Regime.GLOBALLY_STABLE,
            c_max=math.inf,
            kstar_at_cmax=kstar_continuous(f, c_max),
            threshold=threshold,
        )
    return StabilityReport(
        regime=Regime.FINITE_REGION,
        c_max=c_max,
        kstar_at_cmax=kstar_continuous(f, c_max) if c_max > 0 else d0,
        threshold=threshold,
    )


class ShiftedDynamics:
    """Reservoir dynamics recentered on the fixed point q* of the unforced map.

    Node i sees fbar_i(r) = f(r + q*_i) + offset_i with
    offset_i = (A q*)_i - q*_i, which vanishes at r = 0 up to the fixed-point
    residual.  Interior stationary candidates are independent of the query
    radius, so they are located once over each node's full scan window and
    filtered per call.
    """

    def __init__(self, base: NodalDynamics, q_star, offsets):
        self.base = base
        self.q_star = np.asarray(q_star, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        if self.q_star.shape != self.offsets.shape or self.q_star.ndim != 1:
            raise ValueError("q_star and offsets must be matching vectors")
        self.nodes = [
            ShiftedNode(base, float(q), float(b))
            for q, b in zip(self.q_star, self.offsets)
        ]
        self.homogeneous = bool(
            base.origin_fixed()
            and np.all(self.q_star == 0.0)
            and np.all(self.offsets == 0.0)
        )
        self.deriv0 = np.array([n.derivative(0.0) for n in self.nodes])
        if self.homogeneous:
            self._roots = None
            self._root_values = None
        else:
            roots, values = [], []
            for node in self.nodes:
                rs = node.interior_stationary_points(node.scan_halfwidth())
                roots.extend(rs)
                values.extend(float(node.raw(r) / r) for r in rs)
            self._roots = np.array(roots)
            self._root_values = np.array(values)

    @property
    def m(self) -> int:
        return self.q_star.shape[0]

    def max_residual(self, network: ReservoirNetwork, f: NodalDynamics) -> float:
        """Sup-norm residual of the fixed point under the unforced map."""
        q = self.q_star
        return float(np.max(np.abs(f.raw(q) + network.a @ q - q)))

    def kpair(self, c: float) -> tuple[float, float]:
        """Aggregated bracket (min_i K_i-, max_i K_i+) at radius c."""
        if not c > 0:
            raise ValueError(f"radius must be positive, got {c}")
        if self.homogeneous:
            return kstar_discrete(self.base, c)
        c = float(c)
        chord_plus = (self.base.raw(c + self.q_star) + self.offsets) / c
        chord_minus = (self.base.raw(-c + self.q_star) + self.offsets) / -c
        values = [chord_plus, chord_minus, self.deriv0]
        if self._roots.size:
            inside = np.abs(self._roots) <= c
            if np.any(inside):
                values.append(self._root_values[inside])
        stacked = np.concatenate([np.atleast_1d(v) for v in values])
        return (float(stacked.min()), float(stacked.max()))

    def ratio_limits(self):
        if self.homogeneous:
            return self.base.ratio_limits()
        vals = [0.0, float(self.deriv0.min()), float(self.deriv0.max())]
        if self._roots.size:
            vals.append(float(self._root_values.min()))
            vals.append(float(self._root_values.max()))
        return (min(vals), max(vals))


def fixed_point(
    network: ReservoirNetwork,
    f: NodalDynamics,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> ShiftedDynamics:
    """Locate q* with f(q*) + A q* = q* and build the recentered view.

    Damped Newton from the origin; a plain fixed-point iteration serves as a
    fallback when a Newton step stalls.  Dynamics that already vanish at the
    origin short-circuit to q* = 0.
    """
    m = network.m
    if f.origin_fixed():
        zeros = np.zeros(m)
        return ShiftedDynamics(f, zeros, zeros)
    a = network.a
    eye = np.eye(m)

    def newton(q, t):
        """Damped Newton on t*f(q) + A q - q = 0 from a warm start.

        Steps come from a least-squares solve so singular Jacobians (f'(q)
        landing on an adjacency eigenvalue gap, e.g. the sigmoid at
        p1*p2/4 = spectral abscissa) stay finite; the line search measures
        the 2-norm, the only norm the Gauss-Newton direction is guaranteed
        to descend.
        """
        g = t * f.raw(q) + a @ q - q
        for _ in range(max_iter):
            if float(np.max(np.abs(g))) <= tol:
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

    # Homotopy on the nodal-term strength: at t=0 the fixed point is the
    # origin; warm-started legs track the branch through saturated regimes
    # where a cold Newton start cycles.
    q = np.zeros(m)
    t_done, t_try, legs = 0.0, 1.0, 0
    while t_done < 1.0 and legs < 64:
        legs += 1
        q_new, res = newton(q.copy(), t_try)
        if res <= tol:
            q, t_done = q_new, t_try
            t_try = 1.0
        else:
            t_try = t_done + 0.5 * (t_try - t_done)
    best = float(np.max(np.abs(f.raw(q) + a @ q - q)))
    if t_done < 1.0 or best > 1e-10:
        raise FixedPointError(
            f"fixed-point search stalled at residual {best:.3e}", residual=best
        )
    offsets = a @ q - q
    return ShiftedDynamics(f, q, offsets)


def cmax_discrete(
    dyn: NodalDynamics | ShiftedDynamics, spectral: SpectralSummary
) -> StabilityReport:
    """Classify the discrete-time regime against the shift interval.

    Each side is solved independently: the largest radius where K+ stays at
    or below rho_plus, and the largest where K- stays at or above rho_minus.
    The certified radius is the smaller; either side may be infinite.
    """
    rho_m, rho_p = spectral.rho_minus, spectral.rho_plus
    if rho_m > rho_p:
        raise InfeasibleTopologyError(
            f"empty admissible shift interval [{rho_m:.6g}, {rho_p:.6g}]"
        )
    if isinstance(dyn, ShiftedDynamics):
        shifted = dyn
    else:
        if not dyn.origin_fixed():
            raise ValueError(
                "dynamics with f(0) != 0 must be recentered via fixed_point()"
            )
        shifted = ShiftedDynamics(dyn, np.zeros(1), np.zeros(1))
    d0_min = float(shifted.deriv0.min())
    d0_max = float(shifted.deriv0.max())
    threshold = (rho_m, rho_p)
    if d0_max > rho_p or d0_min < rho_m:
        return StabilityReport(
            regime=Regime.UNSTABLE,
            c_max=0.0,
            kstar_at_cmax=d0_max if d0_max > rho_p else d0_min,
            threshold=threshold,
            binding_side="upper" if d0_max > rho_p else "lower",
        )
    limits = shifted.ratio_limits()

    def solve_side(is_upper: bool) -> float:
        if limits is not None:
            lim = limits[1] if is_upper else limits[0]
            if (is_upper and lim <= rho_p) or (not is_upper and lim >= rho_m):
                return math.inf
        if is_upper:
            pred = lambda c: shifted.kpair(c)[1] <= rho_p
        else:
            pred = lambda c: shifted.kpair(c)[0] >= rho_m
        c_side, crossed = _largest_admissible(pred)
        return c_side if crossed else math.inf

    c_up = solve_side(True)
    c_low = solve_side(False)
    c_max = min(c_up, c_low)
    if math.isinf(c_max):
        lo, hi = limits if limits is not None else shifted.kpair(_CMAX_CAP)
        return StabilityReport(
            regime=Regime.GLOBALLY_STABLE,
            c_max=math.inf,
            kstar_at_cmax=hi if abs(hi - rho_p) <= abs(lo - rho_m) else lo,
            threshold=threshold,
        )
    side = "upper" if c_up <= c_low else "lower"
    if c_max > 0:
        pair = shifted.kpair(c_max)
        k_at = pair[1] if side == "upper" else pair[0]
    else:
        k_at = d0_max if side == "upper" else d0_min
    return StabilityReport(
        regime=Regime.FINITE_REGION,
        c_max=c_max,
        kstar_at_cmax=k_at,
        threshold=threshold,
        binding_side=side,
    )


def linear_stability(
    network: ReservoirNetwork,
    dyn: NodalDynamics | ShiftedDynamics,
    time_kind: str,
) -> bool:
    """Linearized test at the operating point.

    Continuous time: the Jacobian A + f'(0) I must have all eigenvalue real
    parts negative.  Discrete time: its spectral radius must be below one.
    Recentered dynamics contribute their per-node slopes on the diagonal.
    """
    if time_kind not in ("continuous", "discrete"):
        raise ValueError(f"time_kind must be continuous or discrete: {time_kind!r}")
    if isinstance(dyn, ShiftedDynamics):
        diag = np.diag(dyn.deriv0)
    else:
        diag = float(dyn.derivative(0.0)) * np.eye(network.m)
    jac = network.a + diag
    eig = np.linalg.eigvals(jac)
    if time_kind == "continuous":
        return bool(eig.real.max() < 0.0)
    return bool(np.abs(eig).max() < 1.0)


def simulate_unforced(
    network: ReservoirNetwork,
    f: NodalDynamics,
    initials,
    t_final: float = 50.0,
    dt: float = 0.02,
) -> np.ndarray:
    """Integrate the unforced continuous reservoir from a batch of initial
    conditions; returns the final states (diverged rows become non-finite)."""
    a_t = network.a.T
    r = np.array(np.atleast_2d(initials), dtype=float)
    coupled = np.empty_like(r)
    steps = int(round(t_final / dt))

    def rhs(_t, state, out):
        f.raw(state, out)
        np.matmul(state, a_t, out=coupled)
        out += coupled

    stepper = rk4_steps(rhs, r, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            next(stepper)
    return r


def converged(
    network: ReservoirNetwork, f: NodalDynamics, initials, t_final: float, dt: float
) -> np.ndarray:
    """Per initial condition, whether the unforced trajectory's norm at
    t_final is below CONVERGED_NORM; a diverged (non-finite) row is not."""
    finals = simulate_unforced(network, f, initials, t_final, dt)
    return np.linalg.norm(finals, axis=1) < CONVERGED_NORM


def basin_verify(
    network: ReservoirNetwork,
    f: NodalDynamics,
    c: float,
    n_samples: int,
    seed: int,
    t_final: float = 50.0,
    dt: float = 0.02,
) -> float:
    """Monte Carlo check of the certified ball.

    Samples initial conditions uniformly in the ball of radius c, integrates
    the unforced dynamics, and returns the fraction that `converged`.
    Divergence counts as non-converging, never as an error.
    """
    if not c > 0:
        raise ValueError(f"radius must be positive, got {c}")
    m = network.m
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n_samples, m))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = c * rng.uniform(size=(n_samples, 1)) ** (1.0 / m)
    return float(converged(network, f, radii * direction, t_final, dt).mean())


def analyze(
    network: ReservoirNetwork,
    f: NodalDynamics,
    time_kind: str,
) -> StabilityReport:
    """Full dispatch: spectral summary, fixed-point shift when needed, c_max."""
    if time_kind == "continuous":
        if not f.origin_fixed():
            raise ValueError(
                "continuous-time analysis requires f(0) = 0 (polynomial/tanh kinds)"
            )
        return cmax_continuous(f, alpha_max(network.a))
    if time_kind == "discrete":
        spectral = critical_shifts(network.a)
        if f.origin_fixed():
            return cmax_discrete(f, spectral)
        return cmax_discrete(fixed_point(network, f), spectral)
    raise ValueError(f"time_kind must be continuous or discrete: {time_kind!r}")
