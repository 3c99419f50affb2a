"""Chaotic benchmark signals (Lorenz, Duffing) and normalization helpers.

Trajectories are produced by a fixed-step classical Runge-Kutta integrator so
that identical parameters always give bit-identical samples.  The sampling
interval equals the integration step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSignalError, IntegrationDivergedError

#: steps dropped before recording, so samples start on the attractor
DEFAULT_TRANSIENT_STEPS = 5000


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a benchmark system.

    samples[k] is the state at time k*dt relative to the start of the
    recorded (post-transient) segment; samples[0] is the state reached after
    the transient steps.
    """

    samples: np.ndarray
    dt: float
    component_names: tuple[str, ...]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise ValueError("trajectory needs a nonempty (n, d) sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trajectory samples must be finite")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if samples.shape[1] != len(self.component_names):
            raise ValueError("component names must match the state dimension")
        object.__setattr__(self, "samples", samples)

    def component(self, name: str) -> np.ndarray:
        if name not in self.component_names:
            raise ConfigError(
                f"unknown component {name!r}; have {self.component_names}"
            )
        return self.samples[:, self.component_names.index(name)]


@dataclass(frozen=True)
class SignalPair:
    """Normalized input/target sequences of equal length.

    Both series must already carry zero mean and unit population std; build
    pairs through `make_signal_pair` or `SignalSpec.build`.
    """

    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.input, dtype=float)
        g = np.asarray(self.target, dtype=float)
        if s.shape != g.shape or s.ndim != 1:
            raise ValueError("input and target must be 1-d and equal length")
        for name, seq in (("input", s), ("target", g)):
            if abs(seq.mean()) > 1e-10 or abs(seq.std() - 1.0) > 1e-10:
                raise ValueError(f"{name} sequence is not normalized")
        object.__setattr__(self, "input", s)
        object.__setattr__(self, "target", g)

    @property
    def length(self) -> int:
        return self.input.shape[0]


def rk4_steps(deriv, y, dt):
    """Advance y in place by classical Runge-Kutta steps of y' = deriv(t, y),
    from t = 0, yielding y after each step of dt.

    deriv(t, y, out) writes the slope into out.  y may be one state or a
    (rows, n) batch of states, each row its own system.  This is the one RK4
    body of the package: the signals, the driven reservoir and the unforced
    reservoir all step through it.  Its four slopes and the stage state are
    allocated once, so a step allocates nothing, and every element sees the
    operations of y + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4) with stage inputs
    y + (dt/2)*k in this order, whatever the batch around it.  A row's bits
    therefore depend on its batch only through deriv: a BLAS product over
    the batch, as in `stability.simulate_unforced`, may round by the
    batch's height.
    """
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    # 0-d arrays, because numpy converts a Python float operand on every call
    half, full, sixth, two = (np.array(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    t = 0.0
    while True:
        deriv(t, y, k1)
        np.multiply(k1, half, out=stage)
        stage += y
        deriv(t + 0.5 * dt, stage, k2)
        np.multiply(k2, half, out=stage)
        stage += y
        deriv(t + 0.5 * dt, stage, k3)
        np.multiply(k3, full, out=stage)
        stage += y
        deriv(t + dt, stage, k4)
        k2 *= two
        k2 += k1
        k3 *= two
        k2 += k3
        k2 += k4
        k2 *= sixth
        y += k2
        t += dt
        yield y


def _rk4(deriv, initial, dt, n_steps, transient_steps):
    """Fixed-step RK4; returns the post-transient states including the state
    reached right after the transient."""
    y = np.array(initial, dtype=float)
    dim = y.shape[0]
    out = np.empty((n_steps, dim))
    t = 0.0
    total = transient_steps + n_steps
    stepper = rk4_steps(deriv, y, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            if k >= transient_steps:
                out[k - transient_steps] = y
            next(stepper)
            t += dt
            if not np.all(np.isfinite(y)):
                raise IntegrationDivergedError(
                    f"integration diverged at step {k} (t={t:.6g})"
                )
    return out


def integrate_lorenz(
    n_steps: int,
    dt: float = 0.02,
    initial=(1.0, 1.0, 1.0),
    transient_steps: int = DEFAULT_TRANSIENT_STEPS,
    sigma: float = 10.0,
    rho: float = 28.0,
    beta: float = 8.0 / 3.0,
) -> Trajectory:
    """Lorenz system x' = sigma(y-x), y' = x(rho-z) - y, z' = xy - beta*z."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps <= 0:
        raise ValueError(f"n_steps must be positive, got {n_steps}")

    def deriv(t, s, out):
        # Python floats: the same IEEE operations as on numpy scalars,
        # without a numpy dispatch per operation
        x, y, z = s.tolist()
        out[0] = sigma * (y - x)
        out[1] = x * (rho - z) - y
        out[2] = x * y - beta * z

    samples = _rk4(deriv, initial, dt, n_steps, transient_steps)
    return Trajectory(samples, dt, ("x", "y", "z"))


def integrate_duffing(
    n_steps: int,
    dt: float = 0.02,
    initial=(1.0, 0.0),
    transient_steps: int = DEFAULT_TRANSIENT_STEPS,
    delta: float = 0.3,
    alpha: float = -1.0,
    beta: float = 1.0,
    gamma: float = 0.5,
    omega: float = 1.2,
) -> Trajectory:
    """Driven Duffing oscillator x'' + delta*x' + alpha*x + beta*x^3 = gamma*cos(omega*t).

    The state is (x, y) with y the velocity; the default parameter set is a
    standard chaotic one and every coefficient is overridable.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps <= 0:
        raise ValueError(f"n_steps must be positive, got {n_steps}")

    def deriv(t, s, out):
        x, v = s
        out[:] = (v, gamma * np.cos(omega * t) - delta * v - alpha * x - beta * x**3)

    samples = _rk4(deriv, initial, dt, n_steps, transient_steps)
    return Trajectory(samples, dt, ("x", "y"))


def normalize(seq) -> np.ndarray:
    """Affinely map a sequence to zero mean and unit population std."""
    x = np.asarray(seq, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise DegenerateSignalError("normalization needs at least two samples")
    mu = x.mean()
    sd = x.std()  # population (1/N) convention throughout
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateSignalError("cannot normalize a constant sequence")
    return (x - mu) / sd


def make_signal_pair(
    traj: Trajectory, input_component: str, target_component: str
) -> SignalPair:
    """Pick two trajectory components and normalize each independently."""
    s = normalize(traj.component(input_component))
    g = normalize(traj.component(target_component))
    return SignalPair(input=s, target=g)


_SOURCES = {"lorenz": integrate_lorenz, "duffing": integrate_duffing}


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for building a SignalPair; serializable into configs."""

    source: str = "lorenz"
    input_component: str = "x"
    target_component: str = "z"
    dt: float = 0.02
    transient_steps: int = DEFAULT_TRANSIENT_STEPS
    initial: tuple[float, ...] | None = None
    params: dict | None = None

    def build(self, n_samples: int) -> SignalPair:
        if self.source not in _SOURCES:
            raise ConfigError(f"unknown signal source {self.source!r}")
        kwargs = dict(self.params or {})
        if self.initial is not None:
            kwargs["initial"] = tuple(self.initial)
        traj = _SOURCES[self.source](
            n_steps=n_samples,
            dt=self.dt,
            transient_steps=self.transient_steps,
            **kwargs,
        )
        return make_signal_pair(traj, self.input_component, self.target_component)
