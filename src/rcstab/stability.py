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

What the discrete test proves: one scalar shift K in [K-, K+] of A's whole
spectrum proves stability only when every node has the same ratio
f(r_i)/r_i.  In general the frozen-time matrix is diag(k) + A, with each k_i
anywhere in the bracket, and one shift does not bound its spectrum.  The
regime is kept as the paper defines it.

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
from .equilibria import LEMMA_KINDS, NEWTON_TOL, Balls, newton, squared_norms
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
#: after another.  Measured on one 2-core machine with `rcstab basin` on the
#: basin's 40,000 rows at m = 2, t = 50, with settled rows retired and
#: converging rows captured or trapped (`converged`), 8 alternating runs
#: each: one block took 0.22-0.30 s (median 0.235) at 41.1 MB peak RSS, two
#: blocks 0.22-0.25 s (0.229) at 38.6 MB and four 0.24-0.29 s (0.249) at
#: 37.5 MB.  Two blocks are as fast as one and 2.5 MB smaller; the second
#: block meets the trap that the first one found.  Four save 1.1 MB but
#: take 0.02 s more, and would change the block count, and so the ulps at
#: m >= 5, of nearly every batch of 40,000 elements or more.
SPLIT_ELEMENTS = 30_000
#: steps between two checks of `simulate_unforced` for settled rows
SETTLE_CHECK = 64
#: most RK4 steps that `step_count` accepts for one unforced run
MAX_STEPS = 10**8


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

    Node i sees fbar_i(r) = f(r + q*_i) + offset_i.  `fixed_point` sets
    offset_i = -f(q*_i), so that fbar_i(0) = 0 exactly.  The recentred map
    r <- fbar(r) + A r then differs from the map in moved coordinates by
    the fixed-point residual f(q*) + A q* - q*, at most 1e-10 in max norm,
    which it leaves out: on the recentred system that residual is a
    constant input.  Interior stationary candidates are independent of the
    query radius, so they are located once, at construction, and filtered
    per call: a homogeneous view (f(0) = 0, q* = 0 and no offsets) takes the
    kind's own `stationary_points`, any other view
    `dynamics.shifted_stationary_points`.
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


def fixed_point(network: ReservoirNetwork, f: NodalDynamics) -> ShiftedDynamics:
    """Locate q* with f(q*) + A q* = q* and build the recentered view.

    A homotopy on the nodal-term strength t, each leg a `equilibria.newton` run on
    t*f(q) + A q - q = 0 warm-started from the last solved t.  The
    Jacobian can be exactly singular where f'(q) lands on an adjacency
    eigenvalue gap (e.g. the sigmoid at p1*p2/4 = spectral abscissa).  A
    leg that ends above NEWTON_TOL (a stall, past a fold of the
    branch) fails, its q is thrown away, and the next leg tries half the
    remaining t.  Dynamics that already vanish at the origin short-circuit
    to q* = 0.
    """
    m = network.m
    if f.origin_fixed():
        zeros = np.zeros(m)
        return ShiftedDynamics(f, zeros, zeros)
    a = network.a
    a_minus_eye = a - np.eye(m)

    def jacobian(q):
        jac = a_minus_eye.copy()
        jac.flat[:: m + 1] += t_try * f.derivative(q)
        return jac

    # Homotopy on the nodal-term strength: at t=0 the fixed point is the
    # origin; warm-started legs track the branch through saturated regimes
    # where a cold Newton start cycles.
    q = np.zeros(m)
    t_done, t_try, legs = 0.0, 1.0, 0
    while t_done < 1.0 and legs < 64:
        legs += 1
        q_new, res = newton(q.copy(), lambda x: t_try * f.raw(x) + a @ x - x, jacobian)
        if res <= NEWTON_TOL:
            q, t_done = q_new, t_try
            t_try = 1.0
        else:
            t_try = t_done + 0.5 * (t_try - t_done)
    best = float(np.max(np.abs(f.raw(q) + a @ q - q)))
    if t_done < 1.0 or best > 1e-10:
        raise FixedPointError(
            f"fixed-point search stalled at residual {best:.3e}", residual=best
        )
    return ShiftedDynamics(f, q, -f.raw(q))


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
    unless dt is finite and positive, t_final finite and non-negative, and
    the count at most MAX_STEPS.

    The bound makes a mistaken t_final or dt an error before any step is
    taken, not a run that never ends: MAX_STEPS is 40,000 times the shipped
    basin's 2,500 steps, and would hold its 40,000 rows for days."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")
    steps = t_final / dt
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_final / dt = {t_final} / {dt} is more than {MAX_STEPS} steps")
    return int(round(steps))


def simulate_unforced(
    network: ReservoirNetwork,
    f: NodalDynamics,
    initials,
    t_final: float = 50.0,
    dt: float = 0.02,
    *,
    capture: bool = False,
) -> np.ndarray:
    """Integrate the unforced continuous reservoir from a batch of initial
    conditions; returns the final states (diverged rows become non-finite).

    Rows are independent systems.  A batch with no rows returns at once.
    Otherwise it is cut into max(1, rows * m // SPLIT_ELEMENTS) contiguous
    row blocks, a number fixed by the batch's shape, and `_integrate` steps
    the blocks one after another on the calling thread, retiring rows that
    have settled.  A block's coupling product is one BLAS call on a
    C-contiguous copy of A transposed.  With OpenBLAS at m = 2 and 3 its
    bits do not depend on the block's height; at m >= 5 they can, so
    retiring rows may move the other rows of a block by ulps.

    With capture, rows also retire inside balls that RK4's step map
    provably keeps (`equilibria.ball_kept`): the ball of radius CONVERGED_NORM about
    the origin, and traps about other equilibria, which `_integrate`
    searches for as it steps.  Such a row is returned as it was then, not
    at t_final, but on the same side of CONVERGED_NORM as at t_final; so
    `converged` reads the flags of a run without capture.  The balls found
    are kept across the blocks of one call.  Only polynomial and tanh
    dynamics capture; any other kind steps every row to t_final.
    """
    steps = step_count(t_final, dt)
    r = np.array(np.atleast_2d(initials), dtype=float)
    if not len(r):
        return r
    a_t = np.ascontiguousarray(network.a.T)
    balls = Balls(network.a, f, dt, CONVERGED_NORM) if capture and isinstance(f, LEMMA_KINDS) else None
    for rows in np.array_split(r, max(1, r.size // SPLIT_ELEMENTS)):
        _integrate(a_t, f, rows, steps, dt, balls)
    return r


def _integrate(a_t, f: NodalDynamics, rows, steps: int, dt: float, balls) -> None:
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

    balls, an `equilibria.Balls` or None, adds a second way out at the same checks:
    at most one search for a new trap, from the live row that this step
    moved least (`Balls.search_least_moving`), and then every row inside a
    kept ball retires as it stands.
    """
    live, index = rows, np.arange(len(rows))
    stepper = _unforced_steps(a_t, f, live, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            if step % SETTLE_CHECK:
                next(stepper)
                continue
            before = live.copy()
            next(stepper)
            settled = (live.view(np.int64) == before.view(np.int64)).all(axis=1)
            if balls is None:
                del before
            else:
                before -= live
                moved = squared_norms(before)
                del before  # first, so the norms' temporaries do not raise peak RSS
                balls.search_least_moving(live, moved)
                del moved
                settled |= balls.inside(live)
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
    t_final is below CONVERGED_NORM; a diverged (non-finite) row is not.
    Rows stop stepping once they enter a ball the step map provably keeps
    (`simulate_unforced` with capture): inside the CONVERGED_NORM ball about
    the origin a row reads True, inside a trap about another equilibrium
    False, as the full horizon would give."""
    finals = simulate_unforced(network, f, initials, t_final, dt, capture=True)
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
    if not 0 < c < math.inf:
        raise ValueError(f"radius must be finite and positive, got {c}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    m = network.m
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n_samples, m))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = c * rng.uniform(size=(n_samples, 1)) ** (1.0 / m)
    return float(converged(network, f, radii * direction, t_final, dt).mean())


def spectrum(network: ReservoirNetwork, time_kind: str) -> float | SpectralSummary:
    """What the certificate of time_kind reads of the network's spectrum:
    alpha_max for continuous time, the `critical_shifts` summary for
    discrete time."""
    if time_kind == "continuous":
        return alpha_max(network.a)
    if time_kind == "discrete":
        return critical_shifts(network.a)
    raise ValueError(f"time_kind must be continuous or discrete: {time_kind!r}")


def analyze(
    network: ReservoirNetwork,
    f: NodalDynamics,
    time_kind: str,
    spectral: float | SpectralSummary | None = None,
) -> StabilityReport:
    """Full dispatch: spectral summary, fixed-point shift when needed, c_max.

    spectral is `spectrum(network, time_kind)`, computed here unless the
    caller passes it (a sweep computes it once per network)."""
    if time_kind == "continuous" and not f.origin_fixed():
        raise ValueError(
            "continuous-time analysis requires f(0) = 0 (polynomial/tanh kinds)"
        )
    if spectral is None:
        spectral = spectrum(network, time_kind)
    if time_kind == "continuous":
        return cmax_continuous(f, spectral)
    if f.origin_fixed():
        return cmax_discrete(f, spectral)
    return cmax_discrete(fixed_point(network, f), spectral)
