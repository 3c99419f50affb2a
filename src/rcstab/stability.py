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
yields its own radius; the certified radius is the smaller one.  The
continuous test is this one's upper half, solved by the same code.  Global
stability comes only from exact ratio limits (`ShiftedDynamics.ratio_limits`);
a search past _CMAX_CAP reports the last radius where the bracket fit.  The
certificate covers the unforced reservoir only.

Dynamics that do not vanish at the origin (the sigmoid) are first recentered
on the reservoir's actual fixed point, which makes the per-node functions
non-homogeneous; the brackets then aggregate per-node candidates by min/max.
Every bracket, recentered or not, is formed by `ShiftedDynamics.kpair`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import NodalDynamics, Polynomial, shifted_stationary_points
from .errors import FixedPointError, InfeasibleTopologyError
from .network import ReservoirNetwork, SpectralSummary, alpha_max, critical_shifts
from .signals import rk4_steps

_CMAX_REL_TOL = 1e-9
_CMAX_CAP = 1e6
_CMAX_START = 1e-3
#: final-state norm below which an unforced trajectory counts as converged
CONVERGED_NORM = 1e-4
#: state elements (rows * m) per row block of `simulate_unforced`, which cuts
#: a batch into max(1, rows * m // SPLIT_ELEMENTS) blocks and steps them one
#: after another.  Measured on one 2-core machine on the basin's 40,000 rows
#: at m = 2, t = 50, with settled rows retired (3 runs each,
#: OPENBLAS_NUM_THREADS=1): one block took 1.93-2.10 s at 38.9 MB peak RSS,
#: two blocks 1.78-2.18 s at 35.2 MB, four 2.07-2.35 s at 33.5 MB and eight
#: 2.14-2.64 s at 32.6 MB.  So two blocks are as fast as one and 3.6 MB
#: smaller.
SPLIT_ELEMENTS = 30_000
#: steps between two checks of `simulate_unforced` for settled rows
SETTLE_CHECK = 64


class Regime(str, enum.Enum):
    GLOBALLY_STABLE = "globally_stable"
    FINITE_REGION = "finite_region"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a region analysis.

    c_max is +inf for global stability, which the ratio limits alone decide,
    0.0 for an unstable operating point, and else at most about _CMAX_CAP;
    kstar_at_cmax is the binding bound evaluated at c_max (the limit nearer
    its threshold for the global case).  threshold is -alpha_max for
    continuous time or the pair (rho_minus, rho_plus) for discrete time.
    binding_side tells which discrete bracket end fixed c_max.
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
    """Tightest K with r*f(r) <= K*r^2 on [-c, c]: the bracket's upper end."""
    return kstar_discrete(f, c)[1]


def kstar_discrete(f: NodalDynamics, c: float) -> tuple[float, float]:
    """Tightest bracket (K-, K+) of f(r)/r over [-c, c]; f(0) must be 0."""
    return _unshifted(f).kpair(c)


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
    """Largest c with pred(c) true, assuming pred flips true->false once; 0.0
    when pred fails down to 1e-15, and the last radius where pred held when
    the doubling passes cap (a finite under-claim, never inf)."""
    lo = start
    if not pred(lo):
        hi = lo
        while lo > 1e-15:
            lo *= 0.25
            if pred(lo):
                break
            hi = lo
        else:
            return 0.0
    else:
        hi = 2.0 * lo
        while pred(hi):
            lo = hi
            hi *= 2.0
            if hi > cap:
                return lo
    return bisect_flip(pred, lo, hi, abs_tol=1e-15, rel_tol=_CMAX_REL_TOL)[0]


def _certify(view: ShiftedDynamics, lower: float, upper: float) -> StabilityReport:
    """Certify the ball on which view's bracket stays inside [lower, upper].

    Unstable when a slope at the origin already leaves the interval;
    globally stable when `ShiftedDynamics.ratio_limits` lies inside it;
    otherwise each side whose limit leaves the interval gets the largest
    radius where its bracket end stays inside (valid because K- is
    nonincreasing and K+ nondecreasing in c), and the smaller radius binds.
    """
    threshold = (lower, upper)
    d0_min, d0_max = float(view.deriv0.min()), float(view.deriv0.max())
    if d0_max > upper or d0_min < lower:
        regime, c_max, up = Regime.UNSTABLE, 0.0, d0_max > upper
    else:
        lo, hi = view.ratio_limits()
        if lower <= lo and hi <= upper:
            # the limit nearer its threshold; an infinite lower never is
            k_at = lo if abs(lo - lower) < abs(hi - upper) else hi
            return StabilityReport(Regime.GLOBALLY_STABLE, math.inf, k_at, threshold)
        c_up = math.inf if hi <= upper else _largest_admissible(
            lambda c: view.kpair(c)[1] <= upper
        )
        c_low = math.inf if lo >= lower else _largest_admissible(
            lambda c: view.kpair(c)[0] >= lower
        )
        regime, c_max, up = Regime.FINITE_REGION, min(c_up, c_low), c_up <= c_low
    if c_max > 0:
        k_at = view.kpair(c_max)[1 if up else 0]
    else:
        k_at = d0_max if up else d0_min
    return StabilityReport(
        regime=regime,
        c_max=c_max,
        kstar_at_cmax=k_at,
        threshold=threshold,
        binding_side="upper" if up else "lower",
    )


def cmax_continuous(f: NodalDynamics, alpha_max_value: float) -> StabilityReport:
    """Classify the continuous-time regime: the one-sided certificate
    K*(c) <= -alpha_max, whose threshold is a float and has no binding side.
    f(0) must be 0."""
    report = _certify(_unshifted(f), -math.inf, -float(alpha_max_value))
    return replace(report, threshold=report.threshold[1], binding_side=None)


class ShiftedDynamics:
    """Reservoir dynamics recentered on the fixed point q* of the unforced map.

    Node i sees fbar_i(r) = f(r + q*_i) + offset_i with
    offset_i = (A q*)_i - q*_i, which vanishes at r = 0 up to the fixed-point
    residual.  Interior stationary candidates are independent of the query
    radius, so they are located once, at construction, and filtered per
    call: a homogeneous view (f(0) = 0, q* = 0 and no offsets) takes the
    kind's own `stationary_points`, any other view scans each node's full
    window.
    """

    def __init__(self, base: NodalDynamics, q_star, offsets):
        self.base = base
        self.q_star = np.asarray(q_star, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        if self.q_star.shape != self.offsets.shape or self.q_star.ndim != 1:
            raise ValueError("q_star and offsets must be matching vectors")
        self.homogeneous = bool(
            base.origin_fixed()
            and np.all(self.q_star == 0.0)
            and np.all(self.offsets == 0.0)
        )
        # fbar(r) = f(r + q*) - (0 - offset): subtracting a zero keeps the
        # sign of a zero f(r), where adding one would turn -0.0 into 0.0
        self._neg_offsets = 0.0 - self.offsets
        self.deriv0 = base.derivative(self.q_star)
        if self.homogeneous:
            found = [base.stationary_points()] * self.m
        else:
            found = shifted_stationary_points(base, self.q_star, self.offsets)
        node = np.repeat(np.arange(self.m), [len(rs) for rs in found])
        self._roots = np.array([r for rs in found for r in rs])
        with np.errstate(over="ignore", invalid="ignore"):  # far roots may overflow
            self._root_values = self._fbar(self._roots, node) / self._roots

    @property
    def m(self) -> int:
        return self.q_star.shape[0]

    def max_residual(self, network: ReservoirNetwork, f: NodalDynamics) -> float:
        """Sup-norm residual of the fixed point under the unforced map."""
        q = self.q_star
        return float(np.max(np.abs(f.raw(q) + network.a @ q - q)))

    def _fbar(self, r, node=slice(None)):
        """fbar_i(r) for the given nodes, every node by default."""
        return self.base.raw(r + self.q_star[node]) - self._neg_offsets[node]

    def kpair(self, c: float) -> tuple[float, float]:
        """Aggregated bracket (min_i K_i-, max_i K_i+) at radius c, from the
        four candidate families of every node: the chords at +c and -c, the
        slope fbar_i'(0) and the stationary points inside [-c, c]."""
        if not c > 0:
            raise ValueError(f"radius must be positive, got {c}")
        c = float(c)
        inside = self._root_values[np.abs(self._roots) <= c]
        stacked = np.concatenate(
            [self._fbar(c) / c, self._fbar(-c) / -c, self.deriv0, inside]
        )
        # argmin and argmax take the first of tied candidates, so a zero end
        # has the sign of the first zero candidate, not that of the last
        return (float(stacked[stacked.argmin()]), float(stacked[stacked.argmax()]))

    def ratio_limits(self) -> tuple[float, float]:
        """Bounds (lo, hi) on fbar_i(r)/r for every node i and every r != 0,
        which the bracket approaches as c grows: a homogeneous polynomial
        view takes `Polynomial.ratio_limits`; a recentred polynomial view
        gets (-inf, inf); a bounded kind, whose ratio tends to 0 far out,
        takes the min and max of 0, the slopes fbar_i'(0) and the
        stationary values."""
        if isinstance(self.base, Polynomial):
            return self.base.ratio_limits() if self.homogeneous else (-np.inf, np.inf)
        vals = [0.0, float(self.deriv0.min()), float(self.deriv0.max())]
        if self._roots.size:
            vals.append(float(self._root_values.min()))
            vals.append(float(self._root_values.max()))
        return (min(vals), max(vals))


def _unshifted(f: NodalDynamics) -> ShiftedDynamics:
    """The one-node view of f about the origin, which must be its fixed point."""
    if not f.origin_fixed():
        raise ValueError(
            "dynamics with f(0) != 0 must be recentered via fixed_point()"
        )
    zero = np.zeros(1)
    return ShiftedDynamics(f, zero, zero)


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
    """Classify the discrete-time regime against the shift interval
    [rho_minus, rho_plus]: the two-sided certificate, whose binding_side
    names the bracket end that fixed c_max."""
    rho_m, rho_p = spectral.rho_minus, spectral.rho_plus
    if rho_m > rho_p:
        raise InfeasibleTopologyError(
            f"empty admissible shift interval [{rho_m:.6g}, {rho_p:.6g}]"
        )
    shifted = dyn if isinstance(dyn, ShiftedDynamics) else _unshifted(dyn)
    return _certify(shifted, rho_m, rho_p)


def step_count(t_final: float, dt: float) -> int:
    """Number of RK4 steps of size dt that reach t_final; raises ValueError
    unless dt is finite and positive and t_final finite and non-negative."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")
    return int(round(t_final / dt))


def simulate_unforced(
    network: ReservoirNetwork,
    f: NodalDynamics,
    initials,
    t_final: float = 50.0,
    dt: float = 0.02,
) -> np.ndarray:
    """Integrate the unforced continuous reservoir from a batch of initial
    conditions; returns the final states (diverged rows become non-finite).

    Rows are independent systems.  The batch is cut into
    max(1, rows * m // SPLIT_ELEMENTS) contiguous row blocks, a number fixed
    by the batch's shape, and `_integrate` steps the blocks one after
    another on the calling thread, retiring rows that have settled.  A
    block's coupling product is one BLAS call on a C-contiguous copy of A
    transposed.  With OpenBLAS at m = 2 and 3 its bits do not depend on the
    block's height; at m >= 5 they can, so retiring rows may move the other
    rows of a block by ulps.
    """
    steps = step_count(t_final, dt)
    r = np.array(np.atleast_2d(initials), dtype=float)
    a_t = np.ascontiguousarray(network.a.T)
    for rows in np.array_split(r, max(1, r.size // SPLIT_ELEMENTS)):
        _integrate(a_t, f, rows, steps, dt)
    return r


def _integrate(a_t, f: NodalDynamics, rows, steps: int, dt: float) -> None:
    """Advance rows, a block of unforced states, in place by `steps` RK4
    steps of r' = f(r) + A r.  a_t is a C-contiguous copy of A transposed,
    so each stage's coupling is one row-major product with a_t.

    After every SETTLE_CHECK-th step, a row that this step left bitwise
    unchanged (compared as int64, so the sign of a zero and NaN payloads
    count) is a fixed point of the step map.  A row's step depends on the
    row alone, and at m >= 5 on the block's height, which a run without
    retirement never changes; so every later step would leave the row
    unchanged too.  Such a row is written into `rows` and dropped from the
    live block, and stepping restarts on the rows left, since the slope
    ignores t; the loop ends once no row is left.  A row that blows up to
    a stable non-finite pattern retires the same way; a row still moving,
    or in a 2-cycle, never does.
    """
    live, index = rows, np.arange(len(rows))
    stepper = _unforced_steps(a_t, f, live, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            if step % SETTLE_CHECK:
                next(stepper)
                continue
            before = live.view(np.int64).copy()
            next(stepper)
            settled = (live.view(np.int64) == before).all(axis=1)
            if settled.any():
                rows[index[settled]] = live[settled]
                live, index = live[~settled], index[~settled]
                if not len(live):
                    return
                stepper = _unforced_steps(a_t, f, live, dt)
    rows[index] = live


def _unforced_steps(a_t, f: NodalDynamics, live, dt: float):
    """`rk4_steps` over the unforced slope f(r) + r @ a_t of the block live."""
    coupled = np.empty_like(live)

    def rhs(_t, state, out):
        f.raw(state, out)
        np.matmul(state, a_t, out=coupled)
        out += coupled

    return rk4_steps(rhs, live, dt)


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
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
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
