"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion as it completes.  No test here is expected to fail.

- Criterion 8: the discrete sigmoid window (p2 = 0.5) of each realization is
  p1 in [4 rho-/p2, 4 rho+/p2], with rho+- that realization's own shift
  thresholds; the paper's [-4, 4] is the case rho+- = +-0.5, checked on a
  network built to have exactly those thresholds.
- Criterion 0: over the error-map sweep, globally-stable cells train better
  than outside cells, with diverged runs counted as the worst outcome rather
  than dropped.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

import rcstab as rc
from rcstab.cli import main
from rcstab.signals import SignalSpec
from rcstab.stability import Regime
from rcstab.sweep import GridSpec, RuntimeParams, SweepConfig, run_sweep

CUBIC = rc.Polynomial((-3.0, 4.0, -1.0))


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {mark} - {name}{suffix}")


def test_criterion_1_reference_radius(two_node_system):
    net, f = two_node_system
    start = time.perf_counter()
    report = rc.cmax_continuous(f, rc.alpha_max(net.a))
    elapsed = time.perf_counter() - start
    ok = (
        report.regime is Regime.FINITE_REGION
        and abs(report.c_max - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    _verdict(1, "two-node analytic radius c_max=1", ok,
             f"c_max={report.c_max:.8f}, {elapsed*1e3:.1f} ms")
    assert ok
    neg = rc.cmax_continuous(rc.Polynomial((-3.0, -4.0, -1.0)), rc.alpha_max(net.a))
    assert abs(neg.c_max - 1.0) <= 1e-6


def test_criterion_2_global_anchor(two_node_system):
    net, _ = two_node_system
    alpha = rc.alpha_max(net.a)
    reports = [
        rc.cmax_continuous(rc.Polynomial((-3.0, p2, -1.0)), alpha)
        for p2 in (1.0, -1.0)
    ]
    ok = all(
        r.regime is Regime.GLOBALLY_STABLE and abs(r.kstar_at_cmax - (-2.75)) <= 1e-12
        for r in reports
    )
    _verdict(2, "quadratic +-1 is globally stable (sup K* = -2.75)", ok)
    assert ok


@pytest.mark.slow
def test_criterion_3_basin_containment(two_node_system):
    net, f = two_node_system
    report = rc.cmax_continuous(f, rc.alpha_max(net.a))
    start = time.perf_counter()
    inner = rc.basin_verify(net, f, 0.999 * report.c_max, 10_000, seed=42)
    outer = rc.basin_verify(net, f, 3.0, 10_000, seed=42)
    elapsed = time.perf_counter() - start
    ok = inner == 1.0 and outer < 1.0 and elapsed < 60.0
    _verdict(3, "certified ball converges, radius-3 ball does not", ok,
             f"inner={inner:.4f}, outer={outer:.4f}, {elapsed:.1f} s")
    assert ok


def test_criterion_4_tanh_lower_bound_exact():
    grid = np.arange(0.1, 10.0 + 1e-12, 0.1)
    ok = True
    for p1, p2 in ((-2.0, 0.5), (-0.7, 1.3), (-5.0, 0.2)):
        f = rc.ScaledTanh(p1, p2)
        for c in grid:
            km, _ = rc.kstar_discrete(f, float(c))
            if abs(km - p1 * p2) > 1e-12:
                ok = False
    _verdict(4, "tanh lower bound equals p1*p2 for every radius", ok)
    assert ok


def test_criterion_5_shift_soundness():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        raw = rng.normal(size=(m, m))
        a = raw * (rng.uniform(0.3, 0.95) / np.abs(np.linalg.eigvals(raw)).max())
        spec = rc.critical_shifts(a)
        for k in rng.uniform(spec.rho_minus, spec.rho_plus, size=100):
            mags = np.abs(np.linalg.eigvals(k * np.eye(m) + a))
            worst = max(worst, float(mags.max()) - 1.0)
    ok = worst <= 1e-9
    _verdict(5, "every admissible shift keeps the spectrum in the unit disk", ok,
             f"worst excess={worst:.2e}")
    assert ok


def test_criterion_6_training_exactness():
    rng = np.random.default_rng(7)
    omega = np.hstack([rng.normal(size=(500, 8)), np.ones((500, 1))])
    k_true = rng.normal(size=9)
    representable = rc.fit_readout(omega, omega @ k_true).delta_rc
    g = rc.normalize(rng.normal(size=500))
    zero_readout = rc.fit_readout(np.zeros((500, 2)), g).delta_rc
    spread_anchor = rc.spread([1.0, 2.0, 3.0])
    ok = (
        representable <= 1e-8
        and abs(zero_readout - 1.0) <= 1e-9
        and abs(spread_anchor - math.sqrt(2.0 / 3.0)) <= 1e-12
    )
    _verdict(6, "training pipeline exactness", ok,
             f"representable={representable:.2e}, zero-readout={zero_readout:.12f}")
    assert ok


@pytest.fixture(scope="session")
def error_map_records():
    """The desk-scale error-map sweep, shared by the tests below."""
    start = time.perf_counter()
    config = SweepConfig(
        time_kind="continuous",
        template=rc.Polynomial((-3.0,)),
        axis_x="p2",
        axis_y="p3",
        grid=GridSpec(-10.0, 10.0, 21, -10.0, 4.0, 21),
        networks=(rc.construct_adjacency(100, seed=0, input_coupling="signs"),),
        task=SignalSpec(dt=0.02, transient_steps=5000),
        runtime=RuntimeParams(transient=2000, n_keep=10000, dt=0.02),
    )
    records = run_sweep(config)
    return records, time.perf_counter() - start


@pytest.mark.slow
def test_criterion_7_error_map_replica(error_map_records):
    records, elapsed = error_map_records

    beyond = [r for r in records if r.y > 2.0]
    all_beyond_diverge = len(beyond) > 0 and all(r.diverged for r in beyond)

    degenerate = [
        r.delta_rc
        for r in records
        if r.x == 0.0 and r.regime == "globally_stable" and not r.diverged
    ]
    good = [
        r.delta_rc
        for r in records
        if abs(r.x) >= 1.0 and r.y <= -1.0
        and r.regime == "globally_stable" and not r.diverged
    ]
    med_degenerate = statistics.median(degenerate)
    med_good = statistics.median(good)
    separation = med_degenerate > 0.5 > med_good

    by_cell = {(r.x, r.y): r for r in records}
    symmetric = all(
        by_cell[(x, y)].regime == by_cell[(-x, y)].regime for (x, y) in by_cell
    )

    ok = all_beyond_diverge and separation and symmetric and elapsed < 1800.0
    _verdict(
        7, "error-map replica (divergence, degeneracy, symmetry)", ok,
        f"p3>2 diverged={all_beyond_diverge}, median p2=0 {med_degenerate:.3f} "
        f"vs good {med_good:.3f}, symmetric={symmetric}, {elapsed:.0f} s",
    )
    assert ok


def _common_language(inside, outside) -> float:
    """P(a < b) for a drawn from inside and b from outside; ties count half."""
    a = np.asarray(inside, dtype=float)[:, None]
    b = np.asarray(outside, dtype=float)[None, :]
    return float(np.mean((a < b) + 0.5 * (a == b)))


@pytest.mark.slow
def test_global_region_error_correlation(error_map_records):
    """Criterion 0: training error is lower where global stability is certified.

    Both regions are compared over all their non-degenerate (|p2| >= 1)
    cells.  A diverged run is a failed training, scored delta_rc = +inf and
    ranked worst; dropping it would select on the outcome, since about half
    the outside cells diverge.  The statistic is the common-language effect
    size P(delta_in < delta_out), ties counting half (0.730 on this sweep).

    Outside survivors are not uniformly good or bad: a band along the
    boundary is the worst part of the map (delta_rc 0.6-0.97), while cells
    far from it, within |p2| >= 5 and -5.1 <= p3 <= -0.2, score 1e-3 to 1e-1
    with most nodes near a second equilibrium (|r| ~ 2.5) outside the
    certified ball.  That is why the survivor-only medians, printed as a
    diagnostic, favour the outside (0.342 inside vs 0.301).

    Six outside cells at p3 = -0.2, |p2| >= 8 diverge only through the
    fixed-step RK4 drive: the cubic term is negative, so the ODE stays
    bounded, but states approach a far equilibrium (|r| ~ 40-50, f' from
    about -320 to -490) where dt*f' (-6.3 to -9.8) lies outside RK4's real
    stability interval (about -2.79).  Ten substeps per sample keep the same
    drive bounded over 3000 samples.  Scoring those six as perfect fits would
    still give 0.705.
    """
    records, _ = error_map_records
    errors = [(r.x, r.y, r.error) for r in records if r.regime == "error"]
    scored = [r for r in records if r.regime != "error"]
    inside = [r for r in scored if r.regime == "globally_stable"]
    outside = [r for r in scored if r.regime != "globally_stable"]

    def score(r):
        return math.inf if r.diverged else r.delta_rc

    effect = _common_language(
        [score(r) for r in inside if abs(r.x) >= 1.0],
        [score(r) for r in outside if abs(r.x) >= 1.0],
    )
    med_in = statistics.median(
        r.delta_rc for r in inside if abs(r.x) >= 1.0 and not r.diverged
    )
    med_out = statistics.median(r.delta_rc for r in outside if not r.diverged)
    diverged_outside = sum(r.diverged for r in outside) / len(outside)
    diverged_global = sum(r.diverged for r in inside) / len(inside)
    ok = (
        not errors and effect > 0.5
        and diverged_global == 0.0 and diverged_outside > 0.3
    )
    _verdict(
        0, "stability/error correlation invariant", ok,
        f"P(delta_in < delta_out)={effect:.3f}; survivor medians stable="
        f"{med_in:.3f} vs outside={med_out:.3f}; diverged fraction outside="
        f"{diverged_outside:.2f} vs global={diverged_global:.2f}; "
        f"error cells={len(errors)}",
    )
    assert not errors, f"sweep cells ended in regime error: {errors}"
    assert diverged_global == 0.0 and diverged_outside > 0.3
    assert effect > 0.5, (
        f"P(delta_in < delta_out) = {effect:.3f}: globally-stable cells do not "
        "train better than outside cells with diverged runs ranked worst"
    )


def _certified_global(net, p1_grid, p2):
    """Spectral summary of net and the grid p1 certified globally stable."""
    spectral = rc.critical_shifts(net.a)
    stable = [
        float(p1)
        for p1 in p1_grid
        if rc.cmax_discrete(rc.fixed_point(net, rc.Sigmoid(float(p1), p2)), spectral)
        .regime is Regime.GLOBALLY_STABLE
    ]
    return spectral, stable


@pytest.mark.slow
def test_criterion_8_discrete_window_replica():
    """Each realization certifies its own window p1 in [4 rho-/p2, 4 rho+/p2].

    Recentered on q*, node i's ratio is the chord slope
    (f(q*_i + r) - f(q*_i)) / r, which the mean value theorem puts between 0
    and p1*p2/4, so rho- <= p1*p2/4 <= rho+ certifies global stability.  The
    construction fixes only the spectral abscissa at 0.5, giving
    rho+ = sqrt(1 - Im(g)^2) - 0.5 <= 0.5, while rho- depends on the leftmost
    eigenvalues: over seeds 0-9 the lower edge spans -4.82 to -3.77.  The
    paper's literal [-4, 4] is checked on a symmetric network whose spectrum
    spans [-0.5, 0.5], which makes rho+- = +-0.5 exactly.
    """
    p2 = 0.5
    p1_grid = np.arange(-6.0, 6.0 + 1e-9, 0.5)
    holes = []
    divergence_clean = True
    windows = []
    pair = SignalSpec(dt=0.02, transient_steps=5000).build(12000)
    for seed in range(10):
        net = rc.construct_adjacency(100, seed=seed, input_coupling="signs")
        spectral, stable = _certified_global(net, p1_grid, p2)
        holes.extend(
            (seed, float(p1))
            for p1 in p1_grid
            if spectral.rho_minus <= p1 * p2 / 4.0 <= spectral.rho_plus
            and float(p1) not in stable
        )
        windows.append(
            f"seed {seed}: 4rho/p2 [{4.0 * spectral.rho_minus / p2:+.3f},"
            f"{4.0 * spectral.rho_plus / p2:+.3f}] grid "
            f"[{min(stable, default=math.nan):+.1f},"
            f"{max(stable, default=math.nan):+.1f}]"
        )
        for p1 in stable:
            drive = rc.drive_discrete(net, rc.Sigmoid(p1, p2), pair.input)
            if drive.diverged:
                divergence_clean = False

    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    design = rc.ReservoirNetwork(
        a=basis @ np.diag(np.linspace(-0.5, 0.5, 6)) @ basis.T, w=np.ones(6)
    )
    design_spectral, design_stable = _certified_global(design, p1_grid, p2)
    design_exact = (
        abs(design_spectral.rho_minus + 0.5) <= 1e-12
        and abs(design_spectral.rho_plus - 0.5) <= 1e-12
    )
    design_missing = [
        float(p1) for p1 in p1_grid
        if abs(p1) <= 4.0 and float(p1) not in design_stable
    ]

    ok = not holes and design_exact and not design_missing and divergence_clean
    detail = "; ".join(windows)
    _verdict(
        8,
        "discrete sigmoid window covers [4rho-/p2, 4rho+/p2] and is divergence-free",
        ok,
        f"holes={holes}; rho+-=+-0.5 network misses {design_missing}; "
        f"no divergence inside windows={divergence_clean}; {detail}",
    )
    assert divergence_clean, "a run inside a certified-global window diverged"
    assert not holes, (
        "grid p1 with rho- <= p1*p2/4 <= rho+ not certified globally stable "
        f"(seed, p1): {holes}. Window edges are 4rho+-/p2 per realization: "
        f"{detail}"
    )
    assert design_exact, (
        "design network thresholds "
        f"({design_spectral.rho_minus!r}, {design_spectral.rho_plus!r}) are not +-0.5"
    )
    assert not design_missing, (
        f"the rho+-=+-0.5 network's window does not contain [-4, 4]; "
        f"uncertified p1: {design_missing}"
    )


def test_criterion_9_monotonicity_and_bounds():
    c_grid = np.concatenate([np.arange(0.01, 1.0, 0.05), np.arange(1.0, 10.01, 0.25)])
    family = [
        CUBIC,
        rc.Polynomial((1.0, -0.5, 0.1, 0.0, -0.02)),
        rc.ScaledTanh(-2.0, 0.5),
        rc.ScaledTanh(1.5, 2.0),
        rc.Polynomial((0.5, -1.0, -0.5)),
    ]
    mono_ok = True
    bound_ok = True
    for f in family:
        kstars = [rc.kstar_continuous(f, float(c)) for c in c_grid]
        pairs = [rc.kstar_discrete(f, float(c)) for c in c_grid]
        mono_ok &= bool(np.all(np.diff(kstars) >= -1e-12))
        mono_ok &= bool(np.all(np.diff([p[0] for p in pairs]) <= 1e-12))
        mono_ok &= bool(np.all(np.diff([p[1] for p in pairs]) >= -1e-12))
        for c in (0.4, 1.7, 6.0):
            km, kp = rc.kstar_discrete(f, c)
            r = np.linspace(-c, c, 10_001)
            r = r[np.abs(r) > 1e-9]
            ratio = f.raw(r) / r
            bound_ok &= bool(np.max(ratio) <= rc.kstar_continuous(f, c) + 1e-9)
            bound_ok &= bool(np.min(ratio) >= km - 1e-9 and np.max(ratio) <= kp + 1e-9)
    rng = np.random.default_rng(3)
    fd_ok = True
    h = 1e-6
    for f in family:
        for r in rng.uniform(-10, 10, size=100):
            approx = (f.raw(r + h) - f.raw(r - h)) / (2 * h)
            exact = f.derivative(r)
            fd_ok &= abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
    ok = mono_ok and bound_ok and fd_ok
    _verdict(9, "monotonicity, bound domination, derivative consistency", ok,
             f"mono={mono_ok}, bounds={bound_ok}, fd={fd_ok}")
    assert ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = {
        "dynamics": {"kind": "polynomial", "coefficients": [-3]},
        "topology": {"m": 12, "seed": 0, "spectral_target": 0.5,
                     "input_coupling": "signs"},
        "signal": {"source": "lorenz", "input_component": "x",
                   "target_component": "z", "dt": 0.02, "transient_steps": 1000},
        "runtime": {"time_kind": "continuous", "transient": 100,
                    "n_keep": 400, "dt": 0.02},
        "sweep": {
            "axis_x": {"param": "p2", "min": -2, "max": 2, "steps": 2},
            "axis_y": {"param": "p3", "min": -2, "max": -1, "steps": 2},
            "n_realizations": 2,
            "base_seed": 0,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append(out)
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("sweep.csv", "manifest.json")
    )
    _verdict(10, "repeat runs are byte-identical", same)
    assert same
