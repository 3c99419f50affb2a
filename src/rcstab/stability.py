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

from .dynamics import NodalDynamics, Polynomial, ScaledTanh, shifted_stationary_points
from .errors import FixedPointError, InfeasibleTopologyError
from .network import ReservoirNetwork, SpectralSummary, alpha_max, critical_shifts
from .signals import rk4_steps

_CMAX_REL_TOL = 1e-9
_CMAX_CAP = 1e6
_CMAX_START = 1e-3
#: residual (max norm) at which a fixed-point Newton leg stops, and its step cap
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 200
#: a leg ends as failed once its residual 2-norm is above _FIXED_POINT_STALL_RATIO
#: times its value _FIXED_POINT_STALL_ITERS iterations earlier.  Past a fold of
#: the homotopy branch the damped steps creep; a failed leg's q is thrown away,
#: so cutting a leg that would fail anyway leaves the path unchanged
_FIXED_POINT_STALL_ITERS = 15
_FIXED_POINT_STALL_RATIO = 0.9
#: final-state norm below which an unforced trajectory counts as converged
CONVERGED_NORM = 1e-4
#: state elements (rows * m) per row block of `simulate_unforced`, which cuts
#: a batch into max(1, rows * m // SPLIT_ELEMENTS) blocks and steps them one
#: after another.  Measured on one 2-core machine with `rcstab basin` on the
#: basin's 40,000 rows at m = 2, t = 50, with settled rows retired and
#: converging rows captured (`converged`), 8 alternating runs each: one
#: block took 0.47-0.63 s (median 0.56) at 41.2 MB peak RSS, two blocks
#: 0.51-0.61 s (0.54) at 38.5 MB and four 0.47-0.57 s (0.52) at 36.9 MB;
#: in 3 runs, eight took 0.57-0.68 s at 36.9 MB.  Two blocks stay as fast
#: as one and 2.7 MB smaller.  Four gain 0.02 s in the median, inside the
#: spread, and 1.6 MB; they would change the block count, and so the ulps
#: at m >= 5, of nearly every batch of 40,000 elements or more.
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


def fixed_point(network: ReservoirNetwork, f: NodalDynamics) -> ShiftedDynamics:
    """Locate q* with f(q*) + A q* = q* and build the recentered view.

    A homotopy on the nodal-term strength t, each leg a damped Newton
    iteration on t*f(q) + A q - q = 0 warm-started from the last solved t.
    A step is an LU solve of the Jacobian; only a Jacobian that LAPACK finds
    exactly singular takes a least-squares step instead, so the step stays
    finite.  A leg whose residual stalls (_FIXED_POINT_STALL_ITERS) ends as
    failed and the next leg tries half the remaining t.  Dynamics that
    already vanish at the origin short-circuit to q* = 0.
    """
    m = network.m
    if f.origin_fixed():
        zeros = np.zeros(m)
        return ShiftedDynamics(f, zeros, zeros)
    a = network.a
    a_minus_eye = a - np.eye(m)

    def newton(q, t):
        """Damped Newton on t*f(q) + A q - q = 0 from a warm start.

        The line search measures the 2-norm, which neither step raises to
        first order: the LU step, nor the least-squares step taken where the
        Jacobian is exactly singular (f'(q) landing on an adjacency
        eigenvalue gap, e.g. the sigmoid at p1*p2/4 = spectral abscissa).
        Every accepted step lowers the 2-norm, and the stall test reads it.
        """
        g = t * f.raw(q) + a @ q - q
        norms = [math.inf] * _FIXED_POINT_STALL_ITERS  # then one per iteration
        for _ in range(_FIXED_POINT_MAX_ITER):
            if float(np.max(np.abs(g))) <= _FIXED_POINT_TOL:
                break
            norm2 = float(np.linalg.norm(g))
            if norm2 > _FIXED_POINT_STALL_RATIO * norms[-_FIXED_POINT_STALL_ITERS]:
                break
            norms.append(norm2)
            jac = a_minus_eye.copy()
            jac.flat[:: m + 1] += t * f.derivative(q)
            try:
                step = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError:  # exactly singular
                step = np.linalg.lstsq(jac, -g, rcond=None)[0]
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
        if res <= _FIXED_POINT_TOL:
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
    capture: float = 0.0,
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

    A positive capture radius also retires every row whose 2-norm has
    fallen below it, and returns that row as it was then, not at t_final.
    Pass one only when the step map keeps that ball inside itself
    (`_capture_radius`); the default 0 captures nothing.
    """
    steps = step_count(t_final, dt)
    r = np.array(np.atleast_2d(initials), dtype=float)
    a_t = np.ascontiguousarray(network.a.T)
    for rows in np.array_split(r, max(1, r.size // SPLIT_ELEMENTS)):
        _integrate(a_t, f, rows, steps, dt, capture)
    return r


def _integrate(a_t, f: NodalDynamics, rows, steps: int, dt: float, capture: float) -> None:
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
    or in a 2-cycle, never does.  In the same pass, a row whose 2-norm is
    below capture retires as it stands.
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
            del before  # first, so the norm's temporaries do not raise peak RSS
            if capture > 0:
                settled |= np.linalg.norm(live, axis=1) < capture
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


def _rk4_poly(z: float) -> float:
    """P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, RK4's step factor for y' = ky
    at z = hk.  Multiplications only, so a huge z gives inf, not an error."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _stage_poly(z: float) -> float:
    """Q(z) = 1 + z + z^2/2 + z^3/4, the bound of RK4's last stage state."""
    return 1.0 + z * (1.0 + z * (0.5 + z * 0.25))


def _norm2_bound(x) -> float:
    """sqrt(||x||_1 ||x||_inf), an upper bound on ||x||_2 without LAPACK."""
    x = np.abs(x)
    return math.sqrt(float(x.sum(axis=0).max()) * float(x.sum(axis=1).max()))


def _capture_radius(network: ReservoirNetwork, f: NodalDynamics, dt: float) -> float:
    """CONVERGED_NORM when the lemma below proves that S, RK4's step map of
    r' = f(r) + A r at h = dt, keeps the ball |r| < tau = CONVERGED_NORM
    inside itself; 0 otherwise.  |.| is the 2-norm.

    Lemma.  Let f(0) = 0, J = f'(0) I + A, L >= ||J||_2, M = P(hJ) (RK4's
    step matrix for r' = Jr), rho = 2 tau Q(hL), delta >= sup over
    0 < |x| <= rho of |f(x)/x - f'(0)|, and K = L + delta.  If
    Q(hK) <= 1.5 Q(hL), every |r| <= 4 tau / 3 has
    |S(r)| <= (||M||_2 + P(hK) - P(hL)) |r|.

    Proof.  Write F(x) = Jx + g(x).  Each |x_i| <= |x| <= rho gives
    |g(x)| <= delta |x|, so |F(x)| <= K |x|.  RK4 evaluates k_i = F(y_i) at
    y_1 = r and y_{i+1} = r + c_i h k_i, with c = (1/2, 1/2, 1).  By
    induction |k_i| <= a_i |r|, where a_1 = K and a_{i+1} = K (1 + c_i h a_i),
    so |y_i| <= Q(hK) |r| <= rho, which licenses the bound on g at every
    stage.  The linear step's stages k'_i obey the same recursion with L in
    place of K (call it b_i), and e_i = k_i - k'_i obeys |e_1| = |g(r)| <=
    (a_1 - b_1) |r| and |e_{i+1}| <= L c_i h |e_i| + delta |y_{i+1}|, which
    is (a_{i+1} - b_{i+1}) |r| by the same induction.  Hence
    S(r) = Mr + (h/6)(e_1 + 2 e_2 + 2 e_3 + e_4), and the weighted sum of
    a_i - b_i is P(hK) - P(hL).

    Capture is allowed when that factor is at most 1 - 1e-9: the norm then
    falls at every step, with room for rounding, so a row inside the ball
    still has norm below tau at t_final, and `converged` flags it as a run
    without capture would.  ||.||_2 is bounded by `_norm2_bound`; delta is
    sum_{k>=2} |p_k| rho^(k-1) for a polynomial and |p1| p2^3 rho^2 / 3 for
    p1 tanh(p2 r), since 1 - tanh(u)/u <= u^2/3.  Every other kind (the
    sigmoid) is refused, and so is any origin whose linear step does not
    contract (||M||_2 >= 1): an unstable one, or a stiff one where RK4
    itself diverges (h |f'(0)| past about 2.79).
    """
    if not isinstance(f, (Polynomial, ScaledTanh)):
        return 0.0
    eye = np.eye(network.m)
    hj = dt * network.a + (dt * float(f.derivative(0.0))) * eye
    step = eye + hj / 4.0
    for k in (3.0, 2.0, 1.0):  # Horner: M = I + hJ (I + hJ/2 (I + hJ/3 (I + hJ/4)))
        step = eye + (hj @ step) / k
    hl = _norm2_bound(hj)
    rho = 2.0 * CONVERGED_NORM * _stage_poly(hl)
    if isinstance(f, ScaledTanh):
        delta = abs(f.p1) * f.p2 * f.p2 * f.p2 * rho * rho / 3.0
    else:
        delta = 0.0
        for p in reversed(f.coeffs[1:]):
            delta = (delta + abs(p)) * rho
    hk = hl + dt * delta
    factor = _norm2_bound(step) + _rk4_poly(hk) - _rk4_poly(hl)
    if factor <= 1.0 - 1e-9 and _stage_poly(hk) <= 1.5 * _stage_poly(hl):
        return CONVERGED_NORM
    return 0.0


def converged(
    network: ReservoirNetwork, f: NodalDynamics, initials, t_final: float, dt: float
) -> np.ndarray:
    """Per initial condition, whether the unforced trajectory's norm at
    t_final is below CONVERGED_NORM; a diverged (non-finite) row is not.
    A row stops stepping once it enters that ball, when `_capture_radius`
    proves it cannot leave."""
    finals = simulate_unforced(
        network, f, initials, t_final, dt, capture=_capture_radius(network, f, dt)
    )
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
