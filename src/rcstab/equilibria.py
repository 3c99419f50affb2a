"""Equilibria of the unforced reservoir, and balls about them that RK4 keeps.

`newton` is the damped Newton iteration behind `stability.fixed_point` and
behind the trap search.  `ball_kept` is a lemma that proves, or fails to
prove, that RK4's step map of r' = f(r) + A r keeps a ball about a point
inside itself.  `Balls` holds the balls so proved for one
`stability.simulate_unforced` call with capture: the ball of radius
`stability.CONVERGED_NORM` about the origin, and traps about the other
equilibria that its search finds.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import NodalDynamics, Polynomial, ScaledTanh

#: residual (max norm) at which a `newton` run stops, and its step cap
NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
#: a `newton` run ends once its residual 2-norm is above
#: _NEWTON_STALL_RATIO times its value _NEWTON_STALL_ITERS iterations
#: earlier.  Past a fold of `stability.fixed_point`'s homotopy branch the
#: damped steps creep; a failed leg's q is thrown away, so cutting a leg
#: that would fail anyway leaves the path unchanged
_NEWTON_STALL_ITERS = 15
_NEWTON_STALL_RATIO = 0.9
#: radii tried, largest first, for a trap about an equilibrium that
#: `Balls.search` finds
TRAP_RADII = (0.2, 0.05, 0.0125)


def newton(q, residual, jacobian):
    """Damped Newton on residual(q) = 0 from q; returns q and its residual's
    max norm.  jacobian(q) returns the Jacobian as a fresh array.

    A step is an LU solve of the Jacobian; only a Jacobian that LAPACK finds
    exactly singular takes a least-squares step instead, so the step stays
    finite.  The line search measures the 2-norm, which neither step raises
    to first order; every accepted step lowers it.  The run ends at a
    max-norm residual of NEWTON_TOL, after _NEWTON_MAX_ITER
    steps, when no damping lowers the 2-norm, or when the 2-norm stalls
    (above _NEWTON_STALL_RATIO times its value
    _NEWTON_STALL_ITERS iterations earlier).
    """
    g = residual(q)
    norms = [math.inf] * _NEWTON_STALL_ITERS  # then one per iteration
    for _ in range(_NEWTON_MAX_ITER):
        if float(np.max(np.abs(g))) <= NEWTON_TOL:
            break
        norm2 = float(np.linalg.norm(g))
        if norm2 > _NEWTON_STALL_RATIO * norms[-_NEWTON_STALL_ITERS]:
            break
        norms.append(norm2)
        jac = jacobian(q)
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:  # exactly singular
            step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        damp, moved = 1.0, False
        for _ in range(40):
            trial = q + damp * step
            gt = residual(trial)
            if np.all(np.isfinite(gt)) and float(np.linalg.norm(gt)) < norm2:
                q, g, moved = trial, gt, True
                break
            damp *= 0.5
        if not moved:
            break
    return q, float(np.max(np.abs(g)))


def _rk4_poly(z: float) -> float:
    """P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, RK4's step factor for y' = ky
    at z = hk.  Multiplications only, so a huge z gives inf, not an error."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _stage_poly(z: float) -> float:
    """Q(z) = 1 + z + z^2/2 + z^3/4, the bound of RK4's last stage state."""
    return 1.0 + z * (1.0 + z * (0.5 + z * 0.25))


def _input_poly(z: float) -> float:
    """Phi(z) = (P(z) - 1)/z = 1 + z/2 + z^2/6 + z^3/24: RK4's step for
    y' = ky + b adds h Phi(hk) b."""
    return 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))


def _norm2_bound(x) -> float:
    """sqrt(||x||_1 ||x||_inf), an upper bound on ||x||_2 without LAPACK."""
    x = np.abs(x)
    return math.sqrt(float(x.sum(axis=0).max()) * float(x.sum(axis=1).max()))


#: kinds whose nonlinear remainder `ball_kept` can bound
LEMMA_KINDS = (Polynomial, ScaledTanh)


def ball_kept(a, f: NodalDynamics, dt: float, q, tau: float) -> bool:
    """Whether the lemma below proves that S, RK4's step map of
    r' = F(r) = f(r) + A r at h = dt, keeps the ball |r - q| <= tau inside
    itself.  |.| is the 2-norm; q is any point, not only an equilibrium.

    Lemma.  Let b = F(q), beta >= |b|, J = diag f'(q) + A, L >= ||J||_2,
    M = P(hJ) (RK4's step matrix for x' = Jx), rho = 2 (tau + h beta) Q(hL),
    g_i(u) = f(q_i + u) - f(q_i) - f'(q_i) u (node i's nonlinear
    remainder), delta >= sup over i and 0 < |u| <= rho of |g_i(u)/u|, and
    K = L + delta.  If Q(hK) <= 1.5 Q(hL), every |x| <= 4 tau / 3 has
    |S(q + x) - q| <= lam |x| + h Phi(hK) beta, lam = ||M||_2 + P(hK) - P(hL).

    Proof.  F(q + x) = b + Jx + g(x), with g acting node by node.  Each
    |x_i| <= |x| <= rho gives |g(x)| <= delta |x|, so |F(q + x)| <=
    beta + K |x|.  RK4 evaluates k_i = F(q + y_i) at y_1 = x and
    y_{i+1} = x + c_i h k_i, with c = (1/2, 1/2, 1).  By induction
    |k_i| <= a_i (K |x| + beta), where a_1 = 1 and a_{i+1} = 1 + c_i h K a_i,
    so |y_{i+1}| <= a_{i+1} |x| + c_i h a_i beta <= Q(hK) (|x| + h beta),
    as a_4 = Q(hK); for |x| <= 4 tau / 3 that is at most
    1.5 Q(hL) (4/3) (tau + h beta) = rho, which licenses the bound on g at
    every stage.  The stages k'_i of the linear step, for the slope
    b + Jx, obey the same recursion with L in place of K (call it a'_i),
    and that step is Mx + h Phi(hJ) b, where ||Phi(hJ)||_2 <= Phi(hL).  The
    errors e_i = k_i - k'_i obey |e_1| = |g(x)| <= delta |x| and
    |e_{i+1}| <= L c_i h |e_i| + delta |y_{i+1}|, so by the same induction
    |e_i| <= (K a_i - L a'_i) |x| + (a_i - a'_i) beta.  Hence
    S(q + x) - q = Mx + h Phi(hJ) b + (h/6)(e_1 + 2 e_2 + 2 e_3 + e_4), and
    the weighted sums of K a_i and of a_i are P(hK) - 1 and h Phi(hK).

    The ball is kept when lam tau + h Phi(hK) beta <= tau - 1e-9 (|q| + tau).
    Then lam <= 1 - 1e-9, and every ball about q of radius tau' in
    [tau, 4 tau / 3] is kept with an absolute room of 1e-9 (|q| + tau').
    That room covers the rounding of one floating-point step, a few ulps
    of |r| <= |q| + tau' and of h times the terms of F(r), and that of the
    bound's own arithmetic; so a row whose computed distance from q is
    below tau never leaves.  The input
    b is the residual of the equilibrium q approximates; at q = 0 with
    f(0) = 0 it is 0, and the bound reads |S(x)| <= lam |x|: the norm falls
    at every step.  ||.||_2 is bounded by `_norm2_bound`; delta is
    max_i sum_{k>=2} |c_ik| rho^(k-1) for a polynomial with Taylor
    coefficients c_ik at q_i, and max_i |f''(q_i)| rho / 2 +
    |p1| p2^3 rho^2 / 3 for p1 tanh(p2 r), by Taylor's theorem with the
    third derivative of tanh at most 2 in size.  Every other kind (the
    sigmoid) is refused, and so is any q whose linear step does not
    contract (||M||_2 >= 1): a saddle or an unstable node, or a stiff one
    where RK4 itself diverges (h |f'(q)| past about 2.79).
    """
    if not isinstance(f, LEMMA_KINDS):
        return False
    m = len(q)
    eye = np.eye(m)
    hj = dt * a
    hj.flat[:: m + 1] += dt * f.derivative(q)
    step = eye + hj / 4.0
    for k in (3.0, 2.0, 1.0):  # Horner: M = I + hJ (I + hJ/2 (I + hJ/3 (I + hJ/4)))
        step = eye + (hj @ step) / k
    hl = _norm2_bound(hj)
    beta = float(np.linalg.norm(f.raw(q) + a @ q))
    rho = 2.0 * (tau + dt * beta) * _stage_poly(hl)
    if isinstance(f, ScaledTanh):
        t = np.tanh(f.p2 * q)
        curvature = np.abs(2.0 * f.p1 * f.p2 * f.p2 * t * (1.0 - t * t))  # |f''(q)|
        delta = float(curvature.max()) * rho / 2.0
        delta += abs(f.p1) * f.p2 * f.p2 * f.p2 * rho * rho / 3.0
    else:
        d = len(f.coeffs)
        taylor = np.zeros((d + 1, m))  # row k: c_k at every q_i
        taylor[1:] = np.reshape(f.coeffs, (-1, 1))
        for i in range(d):  # Taylor shift by synthetic division
            for k in range(d - 1, i - 1, -1):
                taylor[k] += q * taylor[k + 1]
        delta = np.zeros(m)
        for c in taylor[:1:-1]:
            delta = (delta + np.abs(c)) * rho
        delta = float(delta.max())
    hk = hl + dt * delta
    lam = _norm2_bound(step) + _rk4_poly(hk) - _rk4_poly(hl)
    room = tau - 1e-9 * (float(np.linalg.norm(q)) + tau)
    return bool(
        lam * tau + dt * _input_poly(hk) * beta <= room
        and _stage_poly(hk) <= 1.5 * _stage_poly(hl)
    )


def squared_norms(rows) -> np.ndarray:
    """Each row's squared 2-norm, with no temporary as large as rows."""
    return np.einsum("ij,ij->i", rows, rows)


class Balls:
    """The balls that RK4's step map provably keeps (`ball_kept`), for one
    `stability.simulate_unforced` call with capture, kept across its row
    blocks.  converged_norm is the norm below which a final state counts
    as converged.

    kept holds (q, tau) pairs: first the ball of radius converged_norm
    about the origin, when the lemma proves it, then every trap found.  A
    trap is a kept ball about a point q, of the first radius in TRAP_RADII
    that the lemma proves, with tau + converged_norm < (1 - 1e-9) |q|: a
    row inside it stays farther from the origin than converged_norm, as
    `stability.converged` would have found at t_final.  refused holds the
    points that `search` reached but could not trap (the origin, a
    saddle).  A live row within TRAP_RADII[0] of one is never a start, so
    a refused point is not reached again from nearby and cannot hold up
    the search.
    """

    def __init__(self, a, f: NodalDynamics, dt: float, converged_norm: float):
        self.a, self.f, self.dt, self.converged_norm = a, f, dt, converged_norm
        origin = np.zeros(len(a))
        kept = ball_kept(a, f, dt, origin, converged_norm)
        self.kept = [(origin, converged_norm)] if kept else []
        self.refused = [origin]  # never a trap, since |q| = 0

    def inside(self, rows) -> np.ndarray:
        """Per row, whether its distance from a kept ball's centre is below
        that ball's radius less 1e-9 of it.  The 1e-9 covers rounding, so a
        row inside the origin's ball also has the norm below converged_norm
        that `stability.converged` computes."""
        out = np.zeros(len(rows), dtype=bool)
        for q, tau in self.kept:
            out |= squared_norms(rows - q) < (tau * (1.0 - 1e-9)) ** 2
        return out

    def search_least_moving(self, live, moved) -> None:
        """One `search` from the row of live that moved least, moved being
        each row's squared move over the last step, unless that row lies
        inside a kept ball.  moved is overwritten."""
        moved[np.isnan(moved)] = np.inf  # a non-finite row is no start
        start = int(np.argmin(moved))
        if self.near_refused(live[start]):  # then rule out every row near one
            for p in self.refused:
                moved[squared_norms(live - p) < TRAP_RADII[0] ** 2] = np.inf
            start = int(np.argmin(moved))
        if moved[start] < np.inf and not self.inside(live[start : start + 1])[0]:
            self.search(live[start])

    def near_refused(self, x) -> bool:
        """Whether x lies within TRAP_RADII[0] of a refused point."""
        return bool((np.linalg.norm(np.subtract(self.refused, x), axis=1) < TRAP_RADII[0]).any())

    def search(self, start) -> None:
        """One `newton` run on f(q) + A q = 0 from start.  A point not yet
        known becomes a trap or, failing every radius, a refused point."""
        a, f, m = self.a, self.f, len(start)

        def jacobian(q):
            jac = a.copy()
            jac.flat[:: m + 1] += f.derivative(q)
            return jac

        q = newton(start.copy(), lambda x: f.raw(x) + a @ x, jacobian)[0]
        if self.inside(q[None])[0] or self.near_refused(q):
            return
        norm = float(np.linalg.norm(q))
        for tau in TRAP_RADII:
            reach = tau + self.converged_norm
            if reach < (1.0 - 1e-9) * norm and ball_kept(a, f, self.dt, q, tau):
                self.kept.append((q, tau))
                return
        self.refused.append(q)
