"""Parameter-grid experiments: stability maps, training-error maps, boundary
curves, and two-node basin maps.

A sweep is given its networks, one per realization (`SweepConfig.networks`);
it builds none itself, so the boundary curve reads the realization-0 network
the map ran on.  The cells of one realization are trained SLOTS at a time,
as rows of one state, by `reservoir.train`, the pipeline the train command
uses for its one cell in a state of the same height, so a cell's delta_rc
is the one the train command gives it.  Cells are taken in canonical order
(x-major, then y), and realizations follow one another.  Each cell is
analyzed (`stability.analyze`) as it enters a slot, and the records come
back in canonical order (x-major, then y, then realization).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import reservoir, stability
from .dynamics import NodalDynamics, with_param
from .errors import ConfigError, RcstabError
from .network import ReservoirNetwork, alpha_max
from .reservoir import SLOTS, RuntimeParams
from .signals import SignalSpec

SWEEP_CSV_HEADER = "x,y,realization,regime,c_max,delta_rc,diverged,seed"
#: failures that stay local to their cell, recorded with regime "error"
_CELL_ERRORS = (RcstabError, ValueError, OverflowError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    x_steps: int
    y_min: float
    y_max: float
    y_steps: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"grid range {name} must be finite")
        if self.x_steps < 2 or self.y_steps < 2:
            raise ConfigError("grid needs at least 2 steps per axis")

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)

    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.y_steps)


@dataclass(frozen=True)
class SweepConfig:
    time_kind: str
    template: NodalDynamics
    axis_x: str
    axis_y: str
    grid: GridSpec
    networks: tuple[ReservoirNetwork, ...]  # realization k runs on networks[k]
    task: SignalSpec = field(default_factory=SignalSpec)
    runtime: RuntimeParams = field(default_factory=RuntimeParams)

    def __post_init__(self):
        if self.time_kind not in ("continuous", "discrete"):
            raise ConfigError(f"time_kind must be continuous or discrete: {self.time_kind!r}")
        if self.axis_x == self.axis_y:
            raise ConfigError("the two swept parameters must be distinct")
        object.__setattr__(self, "networks", tuple(self.networks))
        if not self.networks:
            raise ConfigError("need at least one realization")
        if len({net.m for net in self.networks}) > 1:
            raise ConfigError("every realization's network must have the same node count")
        try:
            for axis in (self.axis_x, self.axis_y):
                with_param(self.template, axis, 1.0)  # 1.0 suits every parameter
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.time_kind == "continuous" and self.task.dt != self.runtime.dt:
            raise ConfigError(
                f"continuous drive step {self.runtime.dt} must equal the "
                f"signal sampling interval {self.task.dt}"
            )

    def cell_dynamics(self, x: float, y: float) -> NodalDynamics:
        return with_param(with_param(self.template, self.axis_x, x), self.axis_y, y)


@dataclass(frozen=True)
class SweepRecord:
    x: float
    y: float
    realization: int
    regime: str
    c_max: float
    delta_rc: float
    diverged: bool
    seed: int
    error: str | None = None


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the full grid x realizations experiment.

    Realization k runs every grid cell on config.networks[k], and records
    that network's seed; a single signal pair drives every run.  The
    cells of a realization are trained SLOTS at a time by `reservoir.train`;
    a cell is made and analyzed as it enters a free slot, and its readout is
    fitted as soon as its drive ends.  A realization's spectral summary is
    computed once, at its first cell.  Per-cell failures, a realization
    whose spectrum fails included, are recorded in the cell with regime
    "error".  Records come back in canonical order.
    """
    rt = config.runtime
    pair = config.task.build(rt.transient + rt.n_keep)
    # each slot's Omega is overwritten by its next cell, once delta_rc is read
    omegas = [reservoir.omega_buffer(config.networks[0].m, rt.n_keep) for _ in range(SLOTS)]
    xs, ys = config.grid.x_values(), config.grid.y_values()
    records = {}

    def failed(i, j, k, exc):
        records[i, j, k] = SweepRecord(
            x=float(xs[i]), y=float(ys[j]), realization=k, regime="error",
            c_max=math.nan, delta_rc=math.nan, diverged=False,
            seed=config.networks[k].seed, error=f"{type(exc).__name__}: {exc}",
        )

    def cells(k, net):
        spectral = None  # made at the first cell: the spectrum, or its error
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                try:
                    f = config.cell_dynamics(float(x), float(y))
                    if spectral is None:
                        spectral = _spectrum(net, config.time_kind)
                    if isinstance(spectral, Exception):
                        failed(i, j, k, spectral)
                        continue
                    report = stability.analyze(net, f, config.time_kind, spectral)
                except _CELL_ERRORS as exc:
                    failed(i, j, k, exc)
                    continue
                yield (i, j, report), f

    for k, net in enumerate(config.networks):
        trained = reservoir.train(net, cells(k, net), pair, config.time_kind, rt, omegas)
        for (i, j, report), step, fitted in trained:
            if isinstance(fitted, Exception):
                failed(i, j, k, fitted)
                continue
            records[i, j, k] = SweepRecord(
                x=float(xs[i]), y=float(ys[j]), realization=k,
                regime=report.regime.value, c_max=report.c_max,
                delta_rc=math.nan if fitted is None else fitted.delta_rc,
                diverged=step is not None,
                seed=net.seed,
            )
    return [records[key] for key in sorted(records)]


def _spectrum(net: ReservoirNetwork, time_kind: str):
    """`stability.spectrum` of net, or the cell error it raised, which every
    cell of the realization then records."""
    try:
        return stability.spectrum(net, time_kind)
    except _CELL_ERRORS as exc:
        return exc


def check_boundary(config: SweepConfig, level) -> None:
    """Raise ConfigError unless `boundary_curve(config, level)` is defined:
    a continuous sweep whose cells keep f(0) = 0, and a level that is
    "global" or a finite positive radius (a bool is not a radius)."""
    if config.time_kind != "continuous":
        raise ConfigError("boundary curves are defined for continuous sweeps")
    # a sigmoid sweep has p1 on an axis, and at p1 = 1.0 its f(0) = 0.5.  Not
    # cell_dynamics: perfbench ends its set-up probe at that call's first use
    probe = with_param(with_param(config.template, config.axis_x, 1.0), config.axis_y, 1.0)
    if not probe.origin_fixed():
        raise ConfigError("boundary curves need dynamics with f(0) = 0 in every cell")
    radius = isinstance(level, (int, float)) and not isinstance(level, bool)
    # compared, not converted: an integer beyond float range fails float()
    if level != "global" and not (radius and 0 < level <= sys.float_info.max):
        raise ConfigError(
            f"level must be 'global' or a finite positive radius, got {level!r}"
        )


def boundary_curve(config: SweepConfig, level="global") -> list[tuple[float, float]]:
    """Stability boundary in the swept plane (continuous time).

    For each grid x the curve point is the y where the criterion crosses the
    threshold -alpha_max of config.networks[0], the realization-0 network:
    the limiting supremum of K* for level="global", or K*(c) at a fixed
    radius c for a numeric level.
    Scanning runs upward in y from the stable side; cells with multiple
    crossings are flagged with a warning and the first crossing is kept.
    x values whose criterion never crosses are omitted.
    """
    check_boundary(config, level)
    threshold = -alpha_max(config.networks[0].a)

    def crit(x, y):
        f = config.cell_dynamics(x, y)
        if level == "global":
            sup = stability._unshifted(f).ratio_limits()[1]
        else:
            sup = stability.kstar_continuous(f, float(level))
        return sup - threshold

    points = []
    ys = config.grid.y_values()
    for x in config.grid.x_values():
        vals = [crit(float(x), float(y)) for y in ys]
        brackets = []
        for i in range(len(ys) - 1):
            lo, hi = vals[i], vals[i + 1]
            if math.isnan(lo) or math.isnan(hi):
                continue
            if (lo <= 0.0 < hi) or (lo > 0.0 >= hi):
                brackets.append(i)
        if not brackets:
            continue
        stable_first = [i for i in brackets if vals[i] <= 0.0]
        chosen = stable_first[0] if stable_first else brackets[0]
        if len(brackets) > 1:
            warnings.warn(
                f"multiple stability crossings at x={x:g}; keeping the first "
                "from the stable side",
                stacklevel=2,
            )
        lo_stable = vals[chosen] <= 0.0
        y_lo, y_hi = stability.bisect_flip(
            lambda y: (crit(float(x), y) <= 0.0) == lo_stable,
            float(ys[chosen]), float(ys[chosen + 1]), abs_tol=1e-6,
        )
        points.append((float(x), 0.5 * (y_lo + y_hi)))
    return points


@dataclass(frozen=True)
class BasinMap:
    r1_values: np.ndarray
    r2_values: np.ndarray
    converged: np.ndarray  # shape (len(r1), len(r2))


def basin_map(
    network: ReservoirNetwork,
    f: NodalDynamics,
    window=((-4.0, 4.0), (-4.0, 4.0)),
    resolution: int = 200,
    t_final: float = 50.0,
    dt: float = 0.02,
) -> BasinMap:
    """Convergence map of the unforced two-node system on a rectangle.

    A grid point is marked by `stability.converged`; divergence simply marks
    it as non-converged.  The window's four bounds must be finite.
    """
    if network.m != 2:
        raise ConfigError("basin maps are a two-node visual verification tool")
    if not np.all(np.isfinite(window)):
        raise ConfigError(f"basin window bounds must be finite, got {window}")
    (r1_lo, r1_hi), (r2_lo, r2_hi) = window
    r1 = np.linspace(r1_lo, r1_hi, resolution)
    r2 = np.linspace(r2_lo, r2_hi, resolution)
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    initials = np.column_stack([g1.ravel(), g2.ravel()])
    converged = stability.converged(network, f, initials, t_final, dt)
    return BasinMap(r1, r2, converged.reshape(resolution, resolution))


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    [
                        _fmt(r.x),
                        _fmt(r.y),
                        str(r.realization),
                        r.regime,
                        _fmt(r.c_max),
                        _fmt(r.delta_rc),
                        "true" if r.diverged else "false",
                        str(r.seed),
                    ]
                )
                + "\n"
            )


def write_boundary_csv(points: list[tuple[float, float]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in points:
            fh.write(f"{_fmt(x)},{_fmt(y)}\n")


def write_basin_csv(basin: BasinMap, path) -> None:
    r2_text = [_fmt(r2) for r2 in basin.r2_values]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r1,r2,converged\n")
        for r1, flags in zip(basin.r1_values, basin.converged.tolist()):
            r1_text = _fmt(r1)
            fh.writelines(
                f"{r1_text},{r2},{'true' if flag else 'false'}\n"
                for r2, flag in zip(r2_text, flags)
            )
