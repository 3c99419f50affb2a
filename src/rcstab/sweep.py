"""Parameter-grid experiments: stability maps, training-error maps, boundary
curves, box-plot statistics, and two-node basin maps.

The cells of one realization are trained SLOTS at a time, as rows of one
state, by `reservoir.train`, the pipeline the train command uses for its one
cell; they are taken in canonical order (x-major, then y), and realizations
follow one another.  Each cell is analyzed (`stability.analyze`) as it
enters a slot, and the records come back in canonical order (x-major, then
y, then realization).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import reservoir, stability
from .dynamics import NodalDynamics, with_param
from .errors import ConfigError, RcstabError
from .network import ReservoirNetwork, alpha_max, construct_adjacency
from .reservoir import RuntimeParams
from .signals import SignalSpec

SWEEP_CSV_HEADER = "x,y,realization,regime,c_max,delta_rc,diverged,seed"
#: cells of one realization driven together.  Each slot keeps an Omega of
#: n_keep x (m + 1) floats alive: the benchmark's cubic map (m = 100,
#: 12,000 samples) peaked at 53.4 MB with one slot, 61.1 MB with two and
#: 69.1 MB with three, against 62.6 MB for the earlier one-cell drive, and
#: its round took 4.56 s with two slots against 5.84 s with one (2 cores).
SLOTS = 2
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
    m: int = 100
    n_realizations: int = 1
    base_seed: int = 0
    spectral_target: float = 0.5
    input_coupling: str = "uniform"
    task: SignalSpec = field(default_factory=SignalSpec)
    runtime: RuntimeParams = field(default_factory=RuntimeParams)

    def __post_init__(self):
        if self.time_kind not in ("continuous", "discrete"):
            raise ConfigError(f"time_kind must be continuous or discrete: {self.time_kind!r}")
        if self.axis_x == self.axis_y:
            raise ConfigError("the two swept parameters must be distinct")
        if self.n_realizations < 1:
            raise ConfigError("need at least one realization")
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

    One network per realization (seed = base_seed + realization) is reused
    across all grid cells, and a single signal pair drives every run.  The
    cells of a realization are trained SLOTS at a time by `reservoir.train`;
    a cell is made and analyzed as it enters a free slot, and its readout is
    fitted as soon as its drive ends.  Per-cell failures, a realization
    whose spectrum fails included, are recorded in the cell with regime
    "error".  Records come back in canonical order.
    """
    rt = config.runtime
    pair = config.task.build(rt.transient + rt.n_keep)
    nets = [
        construct_adjacency(
            config.m,
            seed=config.base_seed + k,
            spectral_target=config.spectral_target,
            input_coupling=config.input_coupling,
        )
        for k in range(config.n_realizations)
    ]
    # each slot's Omega is overwritten by its next cell, once delta_rc is read
    omegas = [reservoir.omega_buffer(config.m, rt.n_keep) for _ in range(SLOTS)]
    xs, ys = config.grid.x_values(), config.grid.y_values()
    records = {}

    def failed(i, j, k, exc):
        records[i, j, k] = SweepRecord(
            x=float(xs[i]), y=float(ys[j]), realization=k, regime="error",
            c_max=math.nan, delta_rc=math.nan, diverged=False,
            seed=config.base_seed + k, error=f"{type(exc).__name__}: {exc}",
        )

    def cells(k, net):
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                try:
                    f = config.cell_dynamics(float(x), float(y))
                    report = stability.analyze(net, f, config.time_kind)
                except _CELL_ERRORS as exc:
                    failed(i, j, k, exc)
                    continue
                yield (i, j, report), f

    for k, net in enumerate(nets):
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
                seed=config.base_seed + k,
            )
    return [records[key] for key in sorted(records)]


def boundary_curve(
    config: SweepConfig, level="global", alpha_max_value: float | None = None
) -> list[tuple[float, float]]:
    """Stability boundary in the swept plane (continuous time).

    For each grid x the curve point is the y where the criterion crosses the
    threshold -alpha_max of the realization-0 network (or of an explicitly
    supplied alpha_max_value): the limiting supremum of K* for
    level="global", or K*(c) at a fixed radius c for a numeric level.
    Scanning runs upward in y from the stable side; cells with multiple
    crossings are flagged with a warning and the first crossing is kept.
    x values whose criterion never crosses are omitted.
    """
    if config.time_kind != "continuous":
        raise ConfigError("boundary curves are defined for continuous sweeps")
    if level != "global" and not (isinstance(level, (int, float)) and level > 0):
        raise ConfigError(f"level must be 'global' or a positive radius, got {level!r}")
    if alpha_max_value is None:
        net = construct_adjacency(
            config.m,
            seed=config.base_seed,
            spectral_target=config.spectral_target,
            input_coupling=config.input_coupling,
        )
        alpha_max_value = alpha_max(net.a)
    threshold = -alpha_max_value

    def crit(x, y):
        f = config.cell_dynamics(x, y)
        if level == "global":
            limits = f.ratio_limits()
            sup = limits[1] if limits is not None else stability.kstar_continuous(
                f, stability._CMAX_CAP
            )
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


def _quantile_sorted(values: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile of an already-sorted array."""
    n = values.shape[0]
    if n == 1:
        return float(values[0])
    pos = (n - 1) * q
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo + 1 >= n:
        return float(values[-1])
    return float(values[lo] * (1.0 - frac) + values[lo + 1] * frac)


def realization_stats(records: list[SweepRecord], group_by: str = "x") -> list[dict]:
    """Five-number summaries of delta_rc per axis value.

    Diverged runs are counted separately and excluded from the quantiles;
    error cells are excluded entirely.  Whiskers follow the Tukey rule
    (furthest points within 1.5 IQR of the quartile).
    """
    if group_by not in ("x", "y"):
        raise ConfigError(f"group_by must be 'x' or 'y', got {group_by!r}")
    groups: dict[float, list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault(getattr(rec, group_by), []).append(rec)
    out = []
    for axis_value in sorted(groups):
        recs = [r for r in groups[axis_value] if r.regime != "error"]
        if not recs:
            continue
        n_div = sum(1 for r in recs if r.diverged)
        vals = np.sort(
            np.array([r.delta_rc for r in recs if not r.diverged], dtype=float)
        )
        entry = {
            "axis_value": float(axis_value),
            "n": len(recs),
            "n_diverged": n_div,
            "median": None,
            "q1": None,
            "q3": None,
            "whisker_low": None,
            "whisker_high": None,
        }
        if vals.size:
            q1 = _quantile_sorted(vals, 0.25)
            q3 = _quantile_sorted(vals, 0.75)
            iqr = q3 - q1
            inside = vals[(vals >= q1 - 1.5 * iqr) & (vals <= q3 + 1.5 * iqr)]
            entry.update(
                median=_quantile_sorted(vals, 0.5),
                q1=q1,
                q3=q3,
                whisker_low=float(inside[0]),
                whisker_high=float(inside[-1]),
            )
        out.append(entry)
    return out


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
    it as non-converged.
    """
    if network.m != 2:
        raise ConfigError("basin maps are a two-node visual verification tool")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r1,r2,converged\n")
        for i, r1 in enumerate(basin.r1_values):
            for j, r2 in enumerate(basin.r2_values):
                flag = "true" if basin.converged[i, j] else "false"
                fh.write(f"{_fmt(r1)},{_fmt(r2)},{flag}\n")
