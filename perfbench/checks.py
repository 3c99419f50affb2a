"""Output checks against computations made apart from the program.

Every check takes parsed outputs plus numbers the benchmark computes itself
with numpy from the realization's own adjacency matrix, and returns a list of
violation messages (empty when the outputs are right).  None of them compares
against a stored copy of an earlier run: `sweep.csv` bytes depend on the
OpenBLAS thread count, so values are compared with tolerances.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: c_max must satisfy its predicate just inside and fail it just outside
CMAX_INSIDE = 1e-8
CMAX_OUTSIDE = 1e-6
#: boundary points must sit on the closed-form parabola to this distance
BOUNDARY_TOL = 1e-6
#: traced and untraced runs of the same command must agree this closely
RECORD_RTOL = 1e-8
#: an independent least-squares re-solve must reproduce delta_rc this closely
RESOLVE_RTOL = 1e-6


def read_sweep_csv(path: Path) -> list[dict]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for raw in csv.DictReader(fh):
            rows.append(
                {
                    "x": float(raw["x"]),
                    "y": float(raw["y"]),
                    "realization": int(raw["realization"]),
                    "regime": raw["regime"],
                    "c_max": float(raw["c_max"]),
                    "delta_rc": float(raw["delta_rc"]),
                    "diverged": raw["diverged"] == "true",
                    "seed": int(raw["seed"]),
                }
            )
    return rows


def read_points_csv(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]


def read_basin_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Grid points (n, 2) and their converged flags (n,)."""
    pts, flags = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            pts.append((float(r["r1"]), float(r["r2"])))
            flags.append(r["converged"] == "true")
    return np.array(pts, dtype=float).reshape(-1, 2), np.array(flags, dtype=bool)


def read_json_number(path: Path, key: str) -> float:
    with open(path, encoding="utf-8") as fh:
        return float(json.load(fh)[key])


# -- spectral facts, computed here from A ---------------------------------


def alpha_of(a: np.ndarray) -> float:
    """Top eigenvalue of the symmetric part (A + A^T)/2."""
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def shift_window(a: np.ndarray) -> tuple[float, float]:
    """(rho-, rho+): the real-axis shifts that keep every eigenvalue of A in
    the closed unit disk."""
    eig = np.linalg.eigvals(a)
    half_chord = np.sqrt(1.0 - eig.imag**2)
    return float(np.max(-(half_chord + eig.real))), float(np.min(half_chord - eig.real))


# -- polynomial closed forms ----------------------------------------------


def cubic_ratio_max(p2: float, p3: float, c: float) -> float:
    """max over |r| <= c of q(r) = -3 + p2 r + p3 r^2."""
    candidates = [c, -c]
    if p3 != 0.0:
        vertex = -p2 / (2.0 * p3)
        if abs(vertex) <= c:
            candidates.append(vertex)
    return max(-3.0 + p2 * r + p3 * r * r for r in candidates)


def cubic_regime(p2: float, p3: float, alpha: float) -> str:
    """Regime of f(r) = -3r + p2 r^2 + p3 r^3 against threshold -alpha."""
    if p2 == 0.0 and p3 == 0.0:
        return "globally_stable"
    if p3 < 0.0 and -3.0 - p2 * p2 / (4.0 * p3) <= -alpha:
        return "globally_stable"
    return "finite_region"


def dissipative(coefficients) -> bool:
    """Odd degree with a negative leading coefficient: the unforced ODE is
    bounded, so a divergence report is an integrator fault.  coefficients[i]
    multiplies r^(i+1)."""
    coeffs = list(coefficients)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return bool(coeffs) and len(coeffs) % 2 == 1 and coeffs[-1] < 0.0


def cubic_faults(rows: list[dict]) -> int:
    """Cells of f = -3r + x r^2 + y r^3 that are dissipative yet diverged."""
    return sum(1 for r in rows if r["diverged"] and dissipative([-3.0, r["x"], r["y"]]))


def axis_values(spec: dict) -> np.ndarray:
    """The evenly spaced values of a config axis {min, max, steps}."""
    return np.linspace(float(spec["min"]), float(spec["max"]), int(spec["steps"]))


def _key(*values) -> tuple:
    return tuple(round(float(v), 9) for v in values)


# -- checks ---------------------------------------------------------------


def check_grid(rows: list[dict], spec: dict) -> list[str]:
    """A sweep lists each cell of its config's grid x realizations exactly
    once, realization k at seed base_seed + k."""
    expected = {
        _key(x, y) + (k,)
        for x in axis_values(spec["axis_x"])
        for y in axis_values(spec["axis_y"])
        for k in range(int(spec["n_realizations"]))
    }
    found = [_key(r["x"], r["y"]) + (r["realization"],) for r in rows]
    out = []
    if len(found) != len(expected):
        out.append(f"{len(found)} cells, the config's grid has {len(expected)}")
    missing, extra = expected - set(found), set(found) - expected
    if missing:
        out.append(f"{len(missing)} grid cells missing, such as {sorted(missing)[0]}")
    if extra:
        out.append(f"{len(extra)} cells off the grid, such as {sorted(extra)[0]}")
    base = int(spec["base_seed"])
    out += [f"cell {f}: seed {r['seed']}, expected {base + r['realization']}"
            for f, r in zip(found, rows) if r["seed"] != base + r["realization"]]
    return out


def check_sweep_common(rows: list[dict]) -> list[str]:
    out = []
    for r in rows:
        cell = f"cell ({r['x']:g}, {r['y']:g}, k={r['realization']})"
        if r["regime"] == "error":
            out.append(f"{cell}: regime error")
        elif not r["diverged"] and not 0.0 < r["delta_rc"] <= 1.0:
            out.append(f"{cell}: delta_rc {r['delta_rc']!r} outside (0, 1]")
    return out


def check_cubic(rows: list[dict], alpha_by_seed: dict[int, float]) -> list[str]:
    """Rows of a (p2, p3) sweep of f = -3r + p2 r^2 + p3 r^3."""
    out = []
    regimes = {}
    for r in rows:
        p2, p3, alpha = r["x"], r["y"], alpha_by_seed[r["seed"]]
        cell = f"cell (p2={p2:g}, p3={p3:g}, seed={r['seed']})"
        regimes[(round(p2, 9), round(p3, 9), r["seed"])] = r["regime"]
        if r["regime"] == "error":
            continue
        expected = cubic_regime(p2, p3, alpha)
        if r["regime"] != expected:
            out.append(f"{cell}: regime {r['regime']}, closed form {expected}")
        elif expected == "finite_region":
            c = r["c_max"]
            if not (math.isfinite(c) and c > 0.0):
                out.append(f"{cell}: finite regime with c_max {c!r}")
            else:
                if cubic_ratio_max(p2, p3, c * (1.0 - CMAX_INSIDE)) > -alpha:
                    out.append(f"{cell}: c_max {c!r} over-claims")
                if cubic_ratio_max(p2, p3, c * (1.0 + CMAX_OUTSIDE)) <= -alpha:
                    out.append(f"{cell}: c_max {c!r} is not the largest radius")
        if p3 > 2.0 and not r["diverged"]:
            out.append(f"{cell}: p3 > 2 but the drive did not diverge")
        if r["regime"] == "globally_stable" and r["diverged"]:
            out.append(f"{cell}: globally stable but diverged")
    for (p2, p3, seed), regime in regimes.items():
        mirror = regimes.get((round(-p2, 9), p3, seed))
        if mirror is not None and mirror != regime:
            out.append(f"cell (p2={p2:g}, p3={p3:g}, seed={seed}): regime {regime}, mirror {mirror}")
    return out


def check_boundary(points: list[tuple[float, float]], alpha: float, spec: dict) -> list[str]:
    """Global boundary of the cubic map: y = x^2 / (4 (alpha - 3)), one point
    for each grid x whose crossing lies in [y_min, y_max)."""
    ys = axis_values(spec["axis_y"])
    expected_x = sorted(
        _key(x) for x in axis_values(spec["axis_x"]) if ys[0] <= x * x / (4.0 * (alpha - 3.0)) < ys[-1]
    )
    found_x = sorted(_key(x) for x, _ in points)
    out = []
    if found_x != expected_x:
        out.append(f"boundary points at x {found_x}, closed form gives {expected_x}")
    for x, y in points:
        expected = x * x / (4.0 * (-3.0 + alpha))
        if not abs(y - expected) <= BOUNDARY_TOL:
            out.append(f"boundary point ({x:g}, {y!r}) off the parabola ({expected!r})")
    return out


def check_sigmoid(rows: list[dict], window_by_seed: dict[int, tuple[float, float]]) -> list[str]:
    """Rows of a (p1, p2) sweep of the discrete sigmoid: every cell whose
    slope p1 p2 / 4 lies in [rho-, rho+] is globally stable (criterion 8)."""
    out = []
    for r in rows:
        p1, p2 = r["x"], r["y"]
        rho_minus, rho_plus = window_by_seed[r["seed"]]
        cell = f"cell (p1={p1:g}, p2={p2:g}, seed={r['seed']})"
        if rho_minus <= p1 * p2 / 4.0 <= rho_plus and r["regime"] != "globally_stable":
            out.append(f"{cell}: inside [{rho_minus:.6f}, {rho_plus:.6f}] but {r['regime']}")
        if r["regime"] == "globally_stable" and r["diverged"]:
            out.append(f"{cell}: globally stable but diverged")
    return out


def check_basin_grid(points: np.ndarray, spec: dict) -> list[str]:
    """basin.csv lists each point of the resolution x resolution grid over
    the config's window exactly once."""
    n = int(spec["resolution"])
    (x_lo, x_hi), (y_lo, y_hi) = spec["window"]
    g1, g2 = np.meshgrid(np.linspace(x_lo, x_hi, n), np.linspace(y_lo, y_hi, n), indexing="ij")
    expected = {_key(a, b) for a, b in zip(g1.ravel(), g2.ravel())}
    found = [_key(a, b) for a, b in points]
    if len(found) == len(expected) and set(found) == expected:
        return []
    return [f"basin has {len(found)} points ({len(set(found) & expected)} on the grid), "
            f"the config's grid has {len(expected)}"]


def check_two_node(
    c_max: float,
    points: np.ndarray,
    converged: np.ndarray,
    inside_fraction: float,
    outside_fraction: float,
) -> list[str]:
    """Two-node reference: q(r) = -3 + 4r - r^2 and alpha = 0 give c_max = 1."""
    out = []
    if not abs(c_max - 1.0) <= 1e-6:
        out.append(f"c_max {c_max!r}, closed form 1")
    norms = np.linalg.norm(points, axis=1)
    bad = np.count_nonzero((norms < c_max) & ~converged)
    if bad:
        out.append(f"{bad} basin points inside the certified ball did not converge")
    if converged.all():
        out.append("every basin point converged; the window shows no boundary")
    if inside_fraction != 1.0:
        out.append(f"basin_verify at 0.999 c_max returned {inside_fraction!r}, not 1.0")
    if not outside_fraction < 1.0:
        out.append(f"basin_verify at radius 3 returned {outside_fraction!r}, not < 1")
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_records(traced: list[dict], untraced: list[dict]) -> list[str]:
    """A traced run must reproduce the untraced run's cells: exactly on
    regime and diverged, to RECORD_RTOL on c_max and delta_rc."""
    if len(traced) != len(untraced):
        return [f"traced run has {len(traced)} cells, untraced {len(untraced)}"]
    out = []
    for t, u in zip(traced, untraced):
        cell = f"cell ({u['x']:g}, {u['y']:g}, k={u['realization']})"
        if (t["x"], t["y"], t["realization"]) != (u["x"], u["y"], u["realization"]):
            out.append(f"{cell}: traced run lists another cell in its place")
        elif t["regime"] != u["regime"] or t["diverged"] != u["diverged"]:
            out.append(f"{cell}: traced {t['regime']}/{t['diverged']}, untraced {u['regime']}/{u['diverged']}")
        else:
            for key in ("c_max", "delta_rc"):
                if not _close(t[key], u[key], RECORD_RTOL):
                    out.append(f"{cell}: traced {key} {t[key]!r}, untraced {u[key]!r}")
    return out


def resolve_delta_rc(omega: np.ndarray, g: np.ndarray) -> float:
    """delta_rc from an independent scipy least-squares solve of omega k = g,
    minimum-norm with singular values below 1e-12 of the largest dropped,
    as the readout is defined."""
    from scipy.linalg import lstsq

    k = lstsq(omega, g, cond=1e-12)[0]
    return float(np.std(omega @ k - g) / np.std(g))


def check_resolve(delta_rc: float, resolved: float) -> list[str]:
    if _close(delta_rc, resolved, RESOLVE_RTOL):
        return []
    return [f"delta_rc {delta_rc!r}, independent re-solve {resolved!r}"]
