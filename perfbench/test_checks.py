"""Self-tests of the benchmark's checks: each check passes on right outputs
and fails on a deliberately wrong one, so none can pass vacuously.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from rcstab import Polynomial, cmax_continuous, construct_adjacency  # noqa: E402


SPEC = {
    "axis_x": {"param": "p2", "min": -8.0, "max": 8.0, "steps": 3},
    "axis_y": {"param": "p3", "min": -9.3, "max": 3.3, "steps": 3},
    "n_realizations": 1,
    "base_seed": 0,
}


def network_a(seed: int) -> np.ndarray:
    return construct_adjacency(100, seed=seed, spectral_target=0.5, input_coupling="signs").a


@pytest.fixture(scope="module")
def alpha():
    return checks.alpha_of(network_a(0))


@pytest.fixture(scope="module")
def cubic_rows(alpha):
    """Right rows of a 3x3 cubic map, certified by the program itself."""
    rows = []
    for p2 in (-8.0, 0.0, 8.0):
        for p3 in (-9.3, -3.0, 3.3):
            report = cmax_continuous(Polynomial((-3.0, p2, p3)), alpha)
            rows.append({
                "x": p2, "y": p3, "realization": 0, "regime": report.regime.value,
                "c_max": report.c_max, "delta_rc": math.nan if p3 > 2 else 0.5,
                "diverged": p3 > 2, "seed": 0,
            })
    return rows


def changed(rows, index, **values):
    out = [dict(r) for r in rows]
    out[index].update(values)
    return out


def find(rows, **where):
    return next(i for i, r in enumerate(rows) if all(r[k] == v for k, v in where.items()))


def test_cubic_rows_pass(cubic_rows, alpha):
    regimes = {r["regime"] for r in cubic_rows}
    assert regimes == {"globally_stable", "finite_region"}
    assert checks.check_cubic(cubic_rows, {0: alpha}) == []
    assert checks.check_sweep_common(cubic_rows) == []
    assert checks.check_grid(cubic_rows, SPEC) == []


def test_grid_fails(cubic_rows):
    assert any("missing" in v for v in checks.check_grid(cubic_rows[:-1], SPEC))
    assert checks.check_grid([], SPEC)
    assert checks.check_grid(cubic_rows + cubic_rows[:1], SPEC)
    assert any("off the grid" in v for v in checks.check_grid(changed(cubic_rows, 0, x=-7.0), SPEC))
    assert checks.check_grid(changed(cubic_rows, 0, realization=1), SPEC)
    assert any("seed" in v for v in checks.check_grid(changed(cubic_rows, 0, seed=1), SPEC))


def test_flipped_regime_fails(cubic_rows, alpha):
    i = find(cubic_rows, x=0.0, y=-3.0)
    bad = changed(cubic_rows, i, regime="finite_region", c_max=1.0)
    found = checks.check_cubic(bad, {0: alpha})
    assert any("closed form" in v for v in found)
    assert any("mirror" in v for v in checks.check_cubic(changed(cubic_rows, find(cubic_rows, x=8.0, y=-3.0), regime="globally_stable"), {0: alpha}))


@pytest.mark.parametrize("scale, words", [(1 + 1e-3, "over-claims"), (1 - 1e-3, "not the largest")])
def test_scaled_cmax_fails(cubic_rows, alpha, scale, words):
    i = find(cubic_rows, x=8.0, y=-3.0)
    bad = changed(cubic_rows, i, c_max=cubic_rows[i]["c_max"] * scale)
    assert any(words in v for v in checks.check_cubic(bad, {0: alpha}))


def test_divergence_rules_fail(cubic_rows, alpha):
    glob = find(cubic_rows, regime="globally_stable")
    assert any("globally stable but diverged" in v for v in checks.check_cubic(changed(cubic_rows, glob, diverged=True), {0: alpha}))
    hot = find(cubic_rows, x=0.0, y=3.3)
    assert any("p3 > 2" in v for v in checks.check_cubic(changed(cubic_rows, hot, diverged=False, delta_rc=0.5), {0: alpha}))


def test_common_checks_fail(cubic_rows):
    assert checks.check_sweep_common(changed(cubic_rows, 0, regime="error"))
    assert checks.check_sweep_common(changed(cubic_rows, 0, delta_rc=1.5))
    assert checks.check_sweep_common(changed(cubic_rows, 0, delta_rc=0.0))


def test_boundary(alpha):
    points = [(x, x * x / (4.0 * (alpha - 3.0))) for x in (-8.0, 0.0, 8.0)]
    assert checks.check_boundary(points, alpha, SPEC) == []
    assert checks.check_boundary(points[:2] + [(8.0, points[2][1] + 1e-5)], alpha, SPEC)
    assert checks.check_boundary(points[:2], alpha, SPEC)
    assert checks.check_boundary([], alpha, SPEC)
    narrow = dict(SPEC, axis_y={"param": "p3", "min": -3.0, "max": 3.3, "steps": 3})
    assert checks.check_boundary(points[1:2], alpha, narrow) == []


def test_fault_count():
    rows = [
        {"x": 10.0, "y": -0.2, "diverged": True},
        {"x": 10.0, "y": 4.0, "diverged": True},
        {"x": -10.0, "y": -0.2, "diverged": False},
    ]
    assert checks.cubic_faults(rows) == 1
    assert checks.dissipative([-3.0, 0.0, 0.0]) and not checks.dissipative([-3.0, 1.0])


def test_sigmoid_window():
    rho_minus, rho_plus = checks.shift_window(network_a(0))
    assert rho_minus < 0.0 < rho_plus
    row = {"x": 2.0, "y": 0.5, "realization": 0, "regime": "globally_stable", "c_max": math.inf,
           "delta_rc": 0.1, "diverged": False, "seed": 0}
    window = {0: (rho_minus, rho_plus)}
    assert checks.check_sigmoid([row], window) == []
    assert checks.check_sigmoid([dict(row, regime="unstable")], window)
    assert checks.check_sigmoid([dict(row, diverged=True)], window)
    outside = dict(row, x=4.0 * (rho_plus + 0.1) / 0.5, regime="unstable")
    assert checks.check_sigmoid([outside], window) == []


def test_two_node():
    grid = np.linspace(-4.0, 4.0, 41)
    points = np.array([(a, b) for a in grid for b in grid])
    converged = np.linalg.norm(points, axis=1) < 1.5
    assert checks.check_two_node(1.0, points, converged, 1.0, 0.6) == []
    inside = int(np.argmin(np.linalg.norm(points, axis=1)))
    assert checks.check_two_node(1.0, points, np.where(np.arange(len(points)) == inside, False, converged), 1.0, 0.6)
    assert checks.check_two_node(1.0, points, np.ones(len(points), dtype=bool), 1.0, 0.6)
    assert checks.check_two_node(1.001, points, converged, 1.0, 0.6)
    assert checks.check_two_node(1.0, points, converged, 0.9999, 0.6)
    assert checks.check_two_node(1.0, points, converged, 1.0, 1.0)


def test_basin_grid():
    spec = {"window": [[-4, 4], [-2, 2]], "resolution": 5}
    grid = [(a, b) for a in np.linspace(-4, 4, 5) for b in np.linspace(-2, 2, 5)]
    points = np.array(grid)
    assert checks.check_basin_grid(points, spec) == []
    assert checks.check_basin_grid(points[:-1], spec)
    assert checks.check_basin_grid(np.vstack([points[:-1], points[:1]]), spec)
    assert checks.check_basin_grid(points, dict(spec, resolution=6))


def test_compare_records(cubic_rows):
    assert checks.compare_records(cubic_rows, cubic_rows) == []
    i = find(cubic_rows, x=8.0, y=-3.0)
    assert checks.compare_records(changed(cubic_rows, i, c_max=cubic_rows[i]["c_max"] * (1 + 1e-7)), cubic_rows)
    assert checks.compare_records(changed(cubic_rows, i, diverged=True), cubic_rows)
    assert checks.compare_records(changed(cubic_rows, i, delta_rc=0.5 * (1 + 1e-7)), cubic_rows)
    assert checks.compare_records(cubic_rows[1:], cubic_rows)


def test_resolve():
    rng = np.random.default_rng(0)
    omega = np.hstack([rng.normal(size=(200, 5)), np.ones((200, 1))])
    g = rng.normal(size=200)
    delta = checks.resolve_delta_rc(omega, g)
    assert 0.0 < delta <= 1.0
    assert checks.check_resolve(delta, delta) == []
    assert checks.check_resolve(delta * (1 + 1e-5), delta)


def span(name, parent, start, end, **extra):
    return {"name": name, "parent": parent, "start": start, "end": end, "wall": end - start, "cpu": 0.0, **extra}


def test_layer_metrics():
    spans = [
        span("sweep.run_sweep", None, 0.0, 10.0),
        span("sweep.cell_dynamics", 0, 1.0, 1.0),
        span("reservoir.drive", 0, 1.0, 3.0, steps=100, states_bytes=2**20, diverged=False),
        span("trace.check", 0, 3.0, 4.0),
        span("sweep.cell_dynamics", 0, 4.0, 4.0),
        span("reservoir.drive", 0, 4.0, 5.0, steps=10, states_bytes=2**19, diverged=True),
        span("network.spectral", None, 10.0, 12.0),
        span("network.spectral", 6, 11.0, 12.0),
    ]
    m = layers.round_metrics([spans])
    assert m["reservoir.drive_s"] == 3.0 and m["reservoir.drive_steps"] == 110
    assert m["reservoir.diverged_runs"] == 1 and m["reservoir.states_mb"] == 1.0
    assert m["network.spectral_s"] == 2.0
    assert m["sweep.run_sweep_s"] == 9.0 and m["sweep.unattributed_s"] == 6.0
    assert layers.cell_times(spans) == [2.0, 6.0]
    assert layers.tail([1.0] * 20) == (1.0, "p50")
    assert layers.tail(list(range(26))) == (15, "p62")
    assert layers.tail(list(range(50))) == (39, "p80")
