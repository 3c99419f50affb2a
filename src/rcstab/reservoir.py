"""Driven reservoir simulation, state harvesting, and readout training.

The training pipeline mirrors the standard echo-state recipe: drive the
network with a normalized input sequence, drop a transient, stack the
recorded node states (plus a ones column) into the regression matrix, and
fit the readout by minimum-norm least squares.  The training error is the
spread of the residual divided by the spread of the target.

One kernel, `drive_cells`, drives every run: it steps up to SLOTS cells of
one network as the rows of one state, in place, and writes each cell's
post-transient rows straight into its regression matrix.  The state is
SLOTS rows high however many cells it holds, so each stage's coupling is
one matrix product of a fixed shape, and a cell gets the same bits in any
slot, beside any other cell or alone.  `drive_continuous` and
`drive_discrete` are its one-cell uses.  `train` drives cells through it
and fits each readout: the train command passes one cell, and
`sweep.run_sweep` a realization's cells SLOTS at a time.
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
#: steps between the divergence checks of `drive_cells`
DRIVE_BLOCK = 64
#: relative singular-value cutoff defining the pseudo-inverse rank
SVD_CUTOFF = 1e-12
#: rows of the regression matrix that `fit_readout` factors at a time.  One
#: fit of 10,000 x 101 on one thread took 58, 49, 35 and 33 ms with blocks
#: of 64, 128, 256 and 512 rows (lstsq: 39 ms), and raised the peak RSS by
#: 0.6, 0.9, 0.9 and 1.4 MB; the peak is what bounds SLOTS.
QR_BLOCK = 256
#: rows of the state that `drive_cells` steps, whatever the number of sinks.
#: Each slot keeps an Omega of n_keep x (m + 1) floats alive, 8 MB at
#: m = 100 with 10,000 kept samples.  The benchmark's cubic-error-map round
#: (seed 5, one OpenBLAS thread, 2 runs each) peaked at 54.5 MB with two
#: slots, 62.4 MB with three and 70.2 MB with four (two slots had peaked at
#: 61.3 MB while the readout's lstsq copied Omega), and took 1.77-2.10 s,
#: 1.50-1.74 s and 1.47-1.77 s.  Driving and fitting the map's nine cells
#: alone took 1.27-1.30 s, 0.98-1.19 s and 0.97-1.21 s: its six full-length
#: cells need three passes with two slots and two with three or four.  A
#: fourth slot costs 8 MB, 13% of the peak, for no gain there.
SLOTS = 3


@dataclass(frozen=True)
class RuntimeParams:
    transient: int = 2000
    n_keep: int = 10000
    dt: float = 0.02

    def __post_init__(self):
        if self.transient < 0 or self.n_keep < 1:
            raise ValueError(
                f"need transient >= 0 and n_keep >= 1, got {self.transient} "
                f"and {self.n_keep}"
            )


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


def omega_buffer(m: int, n_keep: int) -> np.ndarray:
    """An n_keep x (m + 1) regression matrix for `drive_cells` to fill, its
    last column already ones."""
    omega = np.empty((n_keep, m + 1))
    omega[:, m] = 1.0
    return omega


def drive_cells(network, cells, s, time_kind, dt, sinks, first=0, initial=None):
    """Drive several cells of one network at once, one slot per sink.

    cells yields (key, f) pairs whose f share one kind and one parameter
    count.  It is drawn from when a slot is free, so the work that makes a
    cell runs as the cell enters its slot.  Slot j holds its cell as row j
    of a (SLOTS, m) state, whatever the number of sinks (at most SLOTS).
    A cell's row starts at `initial` (zeros by default) and steps once per
    input sample: by `rk4_steps` with step dt for r' = f(r) + A r + w s
    (continuous time, the input held over each step), or by the map
    r <- f(r) + A r + w s (discrete time), which writes each state straight
    into the next row of the check block.  Each stage couples the whole
    state with one product r @ A^T, whose rounding depends on its shape
    only; so a row's bits do not depend on its slot, on the other rows or
    on the number of sinks.  An idle row, and its parameters, stay zero.

    Row n of a cell's states, the state after input n, is written to row
    n - first of its slot's sink, in the first m columns, for n in
    [first, first + len(sink)).  Every DRIVE_BLOCK steps each step of the
    block is checked; the first non-finite state, or state beyond
    DIVERGENCE_THRESHOLD, is the cell's divergence step and no row from it
    on is written.  A slot whose cell diverged or used up s takes the next
    cell at the end of the block.

    Yields (key, sink, divergence_step) as each cell ends, with
    divergence_step None when the cell did not diverge.  The sink is written
    again once the generator resumes.
    """
    if time_kind not in ("continuous", "discrete"):
        raise ValueError(f"time_kind must be continuous or discrete: {time_kind!r}")
    if time_kind == "continuous" and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if len(sinks) > SLOTS:
        raise ValueError(f"need at most {SLOTS} sinks, got {len(sinks)}")
    s = np.asarray(s, dtype=float)
    w, m = network.w, network.m
    a_t = np.ascontiguousarray(network.a.T)
    start = np.zeros(m) if initial is None else np.array(initial, dtype=float)
    total = s.shape[0]
    y = np.zeros((SLOTS, m))
    coupled = np.zeros_like(y)
    block = np.empty((DRIVE_BLOCK, SLOTS, m))
    drives = np.zeros_like(block)
    # views made once: field reads drive, which each step binds to its row
    block_rows, drive_rows = list(block), list(drives)
    cells = iter(cells)
    keys, pos, live = [None] * SLOTS, [0] * SLOTS, []
    nodal, params = None, None

    def field(_t, r, out):
        nodal.evaluate(params, r, out)
        np.matmul(r, a_t, out=coupled)
        out += coupled
        out += drive

    def refill():
        nonlocal nodal, params
        for j in range(len(sinks)):
            if j in live:
                continue
            cell = next(cells, None)
            if cell is None:
                return
            keys[j], f = cell
            if nodal is None:
                # whole rows, not (SLOTS, 1) columns: numpy broadcasts a
                # column at twice the cost of an operand of the state's shape
                nodal = f
                params = tuple(np.zeros((SLOTS, m)) for _ in f.params())
            for row, value in zip(params, f.params(), strict=True):
                row[j] = value
            y[j] = start
            pos[j] = 0
            live.append(j)

    stepper = rk4_steps(field, y, dt) if time_kind == "continuous" else None
    refill()
    while live:
        steps = min(DRIVE_BLOCK, *(total - pos[j] for j in live))
        for j in live:
            np.multiply(s[pos[j] : pos[j] + steps, None], w, out=drives[:steps, j])
        # a diverging row overflows by design; the error state covers the
        # stepping only, not the cells drawn by refill or the caller's work
        # between yields
        with np.errstate(over="ignore", invalid="ignore"):
            if stepper is None:
                # the map reads each row of the block and writes the next;
                # y carries the last row over to the next block
                previous = y
                for drive, row in zip(drive_rows[:steps], block_rows):
                    field(None, previous, row)
                    previous = row
                y[...] = previous
            else:
                for drive, row in zip(drive_rows[:steps], block_rows):
                    next(stepper)
                    row[...] = y
            bounded = (np.abs(block[:steps]) <= DIVERGENCE_THRESHOLD).all(axis=2)
        for j in list(live):
            bad = np.flatnonzero(~bounded[:, j])
            p = pos[j]
            good = int(bad[0]) if bad.size else steps
            lo, hi = max(p, first), min(p + good, first + len(sinks[j]))
            if lo < hi:
                sinks[j][lo - first : hi - first, :m] = block[lo - p : hi - p, j]
            pos[j] = p + steps
            if bad.size or pos[j] == total:
                live.remove(j)
                # a zero row with zero parameters steps to zero: it keeps a
                # diverged cell's inf and nan out until refill sets its start
                y[j] = drives[:, j] = 0.0
                for row in params:
                    row[j] = 0.0
                yield keys[j], sinks[j], (p + good if bad.size else None)
        refill()


def _drive_one(network, f, s, time_kind, dt, initial) -> DriveResult:
    """One cell through `drive_cells`, into states of its own."""
    s = np.asarray(s, dtype=float)
    states = np.empty((s.shape[0], network.m))
    ((_, _, step),) = drive_cells(
        network, [(None, f)], s, time_kind, dt, [states], initial=initial
    )
    if step is None:
        return DriveResult(states)
    return DriveResult(states[:step].copy(), diverged=True, divergence_step=step)


def drive_discrete(
    network: ReservoirNetwork,
    f: NodalDynamics,
    s,
    initial=None,
) -> DriveResult:
    """Iterate r(n+1) = f(r(n)) + A r(n) + w s(n)."""
    return _drive_one(network, f, s, "discrete", None, initial)


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
    return _drive_one(network, f, s, "continuous", dt, initial)


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
    """Minimum-norm least-squares readout, with singular values below
    SVD_CUTOFF times the largest taken as zero.

    [omega | g] is factored without an omega-sized copy: each block of
    QR_BLOCK rows gets its own QR, and R factors covering equal numbers of
    blocks are merged by a QR of the two stacked, as in the TSQR of
    Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci. Comput. 34, 2012).
    With the final R = [[R_o, z], [0, rho]], |omega k - g|^2 =
    |R_o k - z|^2 + rho^2 and R_o has the singular values of omega, so
    `lstsq` on R_o k = z gives omega's minimum-norm solution and cutoff.
    fit and delta_rc come from omega @ k, the residual itself.
    """
    omega = np.asarray(omega, dtype=float)
    g = np.asarray(g, dtype=float)
    if omega.shape[0] != g.shape[0]:
        raise ValueError(
            f"row mismatch: omega has {omega.shape[0]} rows, target {g.shape[0]}"
        )
    denom = spread(g)
    if denom == 0.0:
        raise DegenerateTargetError("target sequence is constant")
    n, p = omega.shape
    # R factors of 1, 2, 4, ... blocks, like the digits of a binary counter:
    # block i merges once per trailing one bit of i.  Stacking each block on
    # one running R instead rounds that R once per block: where cond(omega)
    # exceeds 1e12, delta_rc then moved by up to 7.6e-6 relative to lstsq
    # on omega, against 3.1e-7 here.
    done = []
    for i, lo in enumerate(range(0, n, QR_BLOCK)):
        block = np.column_stack([omega[lo : lo + QR_BLOCK], g[lo : lo + QR_BLOCK]])
        r = np.linalg.qr(block, mode="r")
        while i & 1:
            r = np.linalg.qr(np.vstack([done.pop(), r]), mode="r")
            i >>= 1
        done.append(r)
    r = done.pop()
    while done:
        r = np.linalg.qr(np.vstack([done.pop(), r]), mode="r")
    k, *_ = np.linalg.lstsq(r[:, :p], r[:, p], rcond=SVD_CUTOFF)
    fit = omega @ k
    return TrainingResult(
        omega=omega, k=k, delta_rc=spread(fit - g) / denom, fit=fit
    )


def train(
    network: ReservoirNetwork,
    cells,
    pair: SignalPair,
    time_kind: str,
    runtime: RuntimeParams,
    omegas=None,
):
    """Drive each cell with pair.input and fit its readout to pair.target
    over the post-transient window.

    cells yields (key, f) pairs, which `drive_cells` drives one per Omega in
    omegas; by default a single fresh one, whose fitted omega then belongs
    to the caller.  A cell's Omega is written again by the next cell to
    take its slot.  Yields (key, step, fitted) as each cell ends: the
    divergence step and None when the drive diverged, else None and the
    fitted readout, or the error that `fit_readout` raised, so that one
    cell's failure does not end the others.
    """
    if omegas is None:
        omegas = [omega_buffer(network.m, runtime.n_keep)]
    needed = runtime.transient + runtime.n_keep
    if pair.length < needed:
        raise TruncatedRunError(
            f"need {needed} usable steps but the run has only {pair.length}"
        )
    g = pair.target[runtime.transient : needed]
    driven = drive_cells(
        network, cells, pair.input, time_kind, runtime.dt, omegas, runtime.transient
    )
    for key, omega, step in driven:
        if step is not None:
            yield key, step, None
            continue
        try:
            fitted = fit_readout(omega, g)
        except (ValueError, np.linalg.LinAlgError) as exc:
            fitted = exc
        yield key, None, fitted
