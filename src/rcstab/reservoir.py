"""Driven reservoir simulation, state harvesting, and readout training.

The training pipeline mirrors the standard echo-state recipe: drive the
network with a normalized input sequence, drop a transient, stack the
recorded node states (plus a ones column) into the regression matrix, and
fit the readout by minimum-norm least squares.  The training error is the
spread of the residual divided by the spread of the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import NodalDynamics
from .errors import DegenerateTargetError, TruncatedRunError
from .network import ReservoirNetwork
from .signals import SignalPair, rk4_steps

#: infinity-norm level at which a run is declared divergent
DIVERGENCE_THRESHOLD = 1e6
#: relative singular-value cutoff defining the pseudo-inverse rank
SVD_CUTOFF = 1e-12


@dataclass(frozen=True)
class RuntimeParams:
    transient: int = 2000
    n_keep: int = 10000
    dt: float = 0.02


@dataclass(frozen=True)
class DriveResult:
    """Node states over time; row n is the state after consuming input n.

    When a drive diverges the states are truncated just before the offending
    step and `divergence_step` records its index.  Divergence is a legitimate
    experimental outcome, not an error.
    """

    states: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None


@dataclass(frozen=True)
class TrainingResult:
    omega: np.ndarray
    k: np.ndarray
    delta_rc: float
    fit: np.ndarray


def _check_state(r: np.ndarray) -> bool:
    """True while the state is finite and inside the divergence threshold."""
    return bool(np.all(np.isfinite(r)) and np.max(np.abs(r)) <= DIVERGENCE_THRESHOLD)


def drive_discrete(
    network: ReservoirNetwork,
    f: NodalDynamics,
    s,
    initial=None,
) -> DriveResult:
    """Iterate r(n+1) = f(r(n)) + A r(n) + w s(n)."""
    s = np.asarray(s, dtype=float)
    a, w = network.a, network.w
    r = np.zeros(network.m) if initial is None else np.array(initial, dtype=float)
    states = np.empty((s.shape[0], network.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(s.shape[0]):
            r = f.raw(r) + a @ r + w * s[n]
            if not _check_state(r):
                return DriveResult(states[:n].copy(), diverged=True, divergence_step=n)
            states[n] = r
    return DriveResult(states)


def drive_continuous(
    network: ReservoirNetwork,
    f: NodalDynamics,
    s,
    dt: float,
    initial=None,
) -> DriveResult:
    """Integrate r' = f(r) + A r + w s(t) with one RK4 step per sample.

    The input is held constant over each sampling interval (zero-order
    hold), so dt must equal the signal's sampling interval.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    s = np.asarray(s, dtype=float)
    a, w = network.a, network.w
    r = np.zeros(network.m) if initial is None else np.array(initial, dtype=float)
    states = np.empty((s.shape[0], network.m))

    def rhs(_t, y):
        return f.raw(y) + a @ y + drive

    stepper = rk4_steps(rhs, r, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(s.shape[0]):
            drive = w * s[n]  # held by rhs over the whole step
            r = next(stepper)
            if not _check_state(r):
                return DriveResult(states[:n].copy(), diverged=True, divergence_step=n)
            states[n] = r
    return DriveResult(states)


def build_omega(
    result: DriveResult, transient: int = 2000, n_keep: int = 10000
) -> np.ndarray:
    """Stack n_keep post-transient state rows and append the ones column."""
    needed = transient + n_keep
    if result.states.shape[0] < needed:
        raise TruncatedRunError(
            f"need {needed} usable steps but the run "
            f"{'diverged at step ' + str(result.divergence_step) if result.diverged else 'has only ' + str(result.states.shape[0])}"
        )
    block = result.states[transient : transient + n_keep]
    return np.hstack([block, np.ones((n_keep, 1))])


def spread(x) -> float:
    """Population standard deviation about the sequence's own mean."""
    x = np.asarray(x, dtype=float)
    if x.size < 1:
        raise ValueError("spread needs at least one sample")
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)))


def fit_readout(omega, g) -> TrainingResult:
    """Minimum-norm least-squares readout via SVD with relative cutoff."""
    omega = np.asarray(omega, dtype=float)
    g = np.asarray(g, dtype=float)
    if omega.shape[0] != g.shape[0]:
        raise ValueError(
            f"row mismatch: omega has {omega.shape[0]} rows, target {g.shape[0]}"
        )
    k, *_ = np.linalg.lstsq(omega, g, rcond=SVD_CUTOFF)
    fit = omega @ k
    denom = spread(g)
    if denom == 0.0:
        raise DegenerateTargetError("target sequence is constant")
    return TrainingResult(
        omega=omega, k=k, delta_rc=spread(fit - g) / denom, fit=fit
    )


def train(
    network: ReservoirNetwork,
    f: NodalDynamics,
    pair: SignalPair,
    time_kind: str,
    runtime: RuntimeParams,
) -> tuple[DriveResult, TrainingResult | None]:
    """Drive the reservoir with pair.input and fit the readout to pair.target
    over the post-transient window.

    Returns the drive and the fitted readout, or None in place of the readout
    when the drive diverged.
    """
    if time_kind == "continuous":
        drive = drive_continuous(network, f, pair.input, runtime.dt)
    elif time_kind == "discrete":
        drive = drive_discrete(network, f, pair.input)
    else:
        raise ValueError(f"time_kind must be continuous or discrete: {time_kind!r}")
    if drive.diverged:
        return drive, None
    omega = build_omega(drive, runtime.transient, runtime.n_keep)
    g = pair.target[runtime.transient : runtime.transient + runtime.n_keep]
    return drive, fit_readout(omega, g)
