"""Grid experiments: records, boundary curves, basin maps."""

import math
import tracemalloc

import numpy as np
import pytest

import rcstab as rc
from rcstab import stability
from rcstab.errors import ConfigError, FixedPointError
from rcstab.signals import SignalSpec
from rcstab.sweep import (
    GridSpec,
    RuntimeParams,
    BasinMap,
    SweepConfig,
    SweepRecord,
    basin_map,
    boundary_curve,
    run_sweep,
    write_basin_csv,
    write_sweep_csv,
)


def small_config(m=10, n_realizations=1, **over):
    """A small continuous cubic sweep on signs-coupled networks of seeds 0, 1, ..."""
    base = dict(
        time_kind="continuous",
        template=rc.Polynomial((-3.0,)),
        axis_x="p2",
        axis_y="p3",
        grid=GridSpec(-2.0, 2.0, 2, -2.0, -1.0, 2),
        networks=tuple(
            rc.construct_adjacency(m, seed=k, input_coupling="signs")
            for k in range(n_realizations)
        ),
        task=SignalSpec(),
        runtime=RuntimeParams(transient=100, n_keep=400, dt=0.02),
    )
    base.update(over)
    return SweepConfig(**base)


class TestRunSweep:
    def test_smoke_grid(self):
        records = run_sweep(small_config())
        assert len(records) == 4
        combos = [(r.x, r.y) for r in records]
        assert combos == [(-2.0, -2.0), (-2.0, -1.0), (2.0, -2.0), (2.0, -1.0)]
        assert all(np.isfinite(r.delta_rc) for r in records)

    def test_continuous_sigmoid_cells_are_errors(self):
        # a continuous cell is analysed like `analyze`, which rejects f(0) != 0
        cfg = small_config(
            template=rc.Sigmoid(4.0, 2.0), axis_x="p1", axis_y="p2",
            grid=GridSpec(3.0, 4.0, 2, 1.0, 2.0, 2),
        )
        records = run_sweep(cfg)
        assert len(records) == 4
        for rec in records:
            assert rec.regime == "error"
            assert rec.error == (
                "ValueError: continuous-time analysis requires f(0) = 0 "
                "(polynomial/tanh kinds)"
            )

    def test_repeat_is_deterministic(self):
        cfg = small_config()
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_classification_symmetry_in_quadratic(self):
        cfg = small_config(
            grid=GridSpec(-6.0, 6.0, 5, -4.0, -0.5, 3),
            runtime=RuntimeParams(transient=50, n_keep=200, dt=0.02),
        )
        records = run_sweep(cfg)
        by_cell = {(r.x, r.y): r for r in records}
        for (x, y), rec in by_cell.items():
            mirror = by_cell[(-x, y)]
            assert rec.regime == mirror.regime
            assert rec.c_max == mirror.c_max or (
                math.isnan(rec.c_max) and math.isnan(mirror.c_max)
            )

    def test_per_cell_errors_do_not_abort(self):
        # a scaled tanh needs p2 > 0, so every cell of this grid fails alone
        cfg = small_config(
            template=rc.ScaledTanh(1.0, 0.5),
            axis_x="p1",
            axis_y="p2",
            grid=GridSpec(-1.0, 1.0, 2, -1.0, 0.0, 2),
        )
        records = run_sweep(cfg)
        assert len(records) == 4
        assert all(r.regime == "error" for r in records)
        assert all(r.error is not None for r in records)

    @pytest.mark.parametrize("axis", ["p3", "q2", "p0"])
    def test_axis_the_template_lacks_is_a_config_error(self, axis):
        with pytest.raises(ConfigError, match=axis):
            small_config(
                template=rc.ScaledTanh(1.0, 0.5),
                axis_x="p1",
                axis_y=axis,
                grid=GridSpec(-1.0, 1.0, 2, 0.0, 1.0, 2),
            )

    def test_discrete_sweep_smoke(self):
        cfg = small_config(
            time_kind="discrete",
            template=rc.ScaledTanh(1.0, 0.5),
            axis_x="p1",
            axis_y="p2",
            grid=GridSpec(-1.0, 1.0, 2, 0.3, 0.6, 2),
            m=12,
        )
        records = run_sweep(cfg)
        assert len(records) == 4
        assert {r.regime for r in records} <= {"globally_stable", "unstable"}

    def test_bad_realization_recorded_per_cell(self):
        # m=10 seed=0 has an eigenvalue outside the unit disk; its cells must
        # carry the error while the sweep still completes
        cfg = small_config(
            time_kind="discrete",
            template=rc.ScaledTanh(1.0, 0.5),
            axis_x="p1",
            axis_y="p2",
            grid=GridSpec(-1.0, 1.0, 2, 0.3, 0.6, 2),
            m=10,
            n_realizations=2,
        )
        records = run_sweep(cfg)
        assert len(records) == 8
        bad = [r for r in records if r.realization == 0]
        good = [r for r in records if r.realization == 1]
        assert all(r.regime == "error" and "SpectralRadius" in r.error for r in bad)
        assert all(r.regime != "error" for r in good)

    def test_dt_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            small_config(task=SignalSpec(dt=0.05))

    def test_networks_must_be_given_and_of_one_size(self):
        with pytest.raises(ConfigError, match="at least one realization"):
            small_config(networks=())
        nets = (rc.construct_adjacency(10, seed=0), rc.construct_adjacency(12, seed=1))
        with pytest.raises(ConfigError, match="same node count"):
            small_config(networks=nets)

    def test_records_carry_each_network_seed(self):
        nets = tuple(rc.construct_adjacency(10, seed=s, input_coupling="signs") for s in (7, 3))
        records = run_sweep(small_config(networks=nets))
        assert [(r.realization, r.seed) for r in records[:2]] == [(0, 7), (1, 3)]


class TestSweepContract:
    def test_each_cell_made_once_and_records_canonical(self, monkeypatch):
        made = []
        cell_dynamics = SweepConfig.cell_dynamics

        def counted(self, x, y):
            made.append((x, y))
            return cell_dynamics(self, x, y)

        monkeypatch.setattr(SweepConfig, "cell_dynamics", counted)
        cfg = small_config(grid=GridSpec(-2.0, 2.0, 3, -2.0, -1.0, 2), n_realizations=2)
        records = run_sweep(cfg)
        cells = [(x, y) for x in (-2.0, 0.0, 2.0) for y in (-2.0, -1.0)]
        assert sorted(made) == sorted(cells * 2)
        assert [(r.x, r.y, r.realization) for r in records] == [
            (x, y, k) for x, y in cells for k in (0, 1)
        ]

    def test_failing_cell_stays_local(self, monkeypatch):
        cfg = small_config(
            time_kind="discrete", template=rc.Sigmoid(0.0, 0.5), axis_x="p1",
            axis_y="p2", grid=GridSpec(0.5, 1.5, 3, 0.25, 0.75, 2), m=12,
        )
        clean = run_sweep(cfg)
        fixed_point = stability.fixed_point

        def stalls_at_p1_one(network, f, **kw):
            if f.p1 == 1.0:
                raise FixedPointError("fixed-point search stalled", residual=1.0)
            return fixed_point(network, f, **kw)

        monkeypatch.setattr(stability, "fixed_point", stalls_at_p1_one)
        records = run_sweep(cfg)
        assert [r.x for r in records] == [0.5, 0.5, 1.0, 1.0, 1.5, 1.5]
        for rec, ref in zip(records, clean):
            if rec.x == 1.0:
                assert rec.regime == "error"
                assert rec.error == "FixedPointError: fixed-point search stalled"
            else:
                assert rec.regime != "error" and np.isfinite(rec.delta_rc)
                assert rec == ref

    def test_memory_holds_two_omegas(self):
        # six cells, but only the two slots' Omega buffers alive at once
        rt = RuntimeParams(transient=200, n_keep=2000, dt=0.02)
        cfg = small_config(grid=GridSpec(-2.0, 2.0, 3, -2.0, -1.0, 2), m=100, runtime=rt)
        omega_bytes = rt.n_keep * (100 + 1) * 8
        pair_bytes = 2 * (rt.transient + rt.n_keep) * 8
        tracemalloc.start()
        try:
            records = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 6
        # a quarter Omega covers the network, its spectrum and the kernel's
        # work arrays; one more live Omega would break the bound
        assert peak <= 2.5 * omega_bytes + pair_bytes, peak / omega_bytes


def boundary_config(grid):
    """A cubic sweep on diag(0.5, -1), whose alpha_max is exactly 0.5."""
    net = rc.ReservoirNetwork(a=np.diag([0.5, -1.0]), w=np.zeros(2))
    assert rc.alpha_max(net.a) == 0.5
    return small_config(grid=grid, networks=(net,))


class TestBoundaryCurve:
    def test_closed_form_anchor(self):
        # sup K* = p1 - p2^2/(4 p3) crosses -alpha at p3 = p2^2/(4(p1+alpha));
        # at p1=-3, alpha=0.5, p2=2 the boundary sits at p3 = -0.4
        cfg = boundary_config(GridSpec(2.0, 3.0, 2, -1.0, -0.05, 40))
        points = boundary_curve(cfg, "global")
        by_x = dict(points)
        assert abs(by_x[2.0] - (-0.4)) <= 1e-6
        assert abs(by_x[3.0] - (9.0 / (4.0 * (-2.5)))) <= 1e-6

    def test_no_crossing_gives_empty(self):
        # with p2 = 0 the supremum equals p1 = -3 < -alpha everywhere below
        cfg = boundary_config(GridSpec(0.0, 0.0001, 2, -3.0, -1.0, 10))
        assert boundary_curve(cfg, "global") == []

    def test_level_curve_radius_one(self):
        # K*(1) for the cubic with p1=-3: max(-3 + p2 + p3, -3 - p2 + p3)
        # crosses -alpha at p3 = p1_abs - |p2| ... check against closed form
        cfg = boundary_config(GridSpec(2.0, 2.0001, 2, -4.0, 2.0, 30))
        points = boundary_curve(cfg, 1.0)
        # -3 + 2 + p3 = -0.5  =>  p3 = 0.5
        assert abs(points[0][1] - 0.5) <= 1e-6

    def test_discrete_rejected(self):
        cfg = small_config(
            time_kind="discrete",
            template=rc.ScaledTanh(1.0, 0.5),
            axis_x="p1",
            axis_y="p2",
        )
        with pytest.raises(ConfigError):
            boundary_curve(cfg, "global")

    @pytest.mark.parametrize("level", [0.0, -1.0, math.inf, math.nan, True, "local", None])
    def test_bad_level_rejected(self, level):
        with pytest.raises(ConfigError):
            boundary_curve(small_config(), level)


class TestBasinMap:
    def test_ball_inside_region_converges(self, two_node_system):
        net, f = two_node_system
        result = basin_map(net, f, window=((-0.6, 0.6), (-0.6, 0.6)), resolution=9)
        assert np.all(result.converged)

    def test_globally_stable_window_converges(self, two_node_system):
        net, _ = two_node_system
        f = rc.Polynomial((-3.0, 1.0, -1.0))
        assert rc.cmax_continuous(f, rc.alpha_max(net.a)).globally_stable
        result = basin_map(net, f, window=((-4.0, 4.0), (-4.0, 4.0)), resolution=8)
        assert np.all(result.converged)

    def test_mixed_window(self, two_node_system):
        net, f = two_node_system
        result = basin_map(net, f, window=((-4.0, 4.0), (-4.0, 4.0)), resolution=12)
        assert np.any(result.converged) and not np.all(result.converged)

    @pytest.mark.parametrize("bound", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_window(self, two_node_system, bound):
        net, f = two_node_system
        with pytest.raises(ConfigError, match="finite"):
            basin_map(net, f, window=((bound, 4.0), (-4.0, 4.0)), resolution=3)

    def test_requires_two_nodes(self, ensemble_network):
        with pytest.raises(ConfigError):
            basin_map(ensemble_network, rc.Polynomial((-3.0,)))

    def test_csv_bytes_match_per_line_loop(self, tmp_path):
        # a non-square grid with values that need all 17 digits
        basin = BasinMap(
            np.linspace(-4.0, 1.0 / 3.0, 7),
            np.linspace(-0.1, 2.0 ** 0.5, 5),
            np.random.default_rng(4).uniform(size=(7, 5)) < 0.5,
        )
        expected = ["r1,r2,converged\n"]
        for i, r1 in enumerate(basin.r1_values):
            for j, r2 in enumerate(basin.r2_values):
                flag = "true" if basin.converged[i, j] else "false"
                expected.append(f"{float(r1):.17g},{float(r2):.17g},{flag}\n")
        path = tmp_path / "basin.csv"
        write_basin_csv(basin, path)
        assert path.read_bytes() == "".join(expected).encode("utf-8")


def test_sweep_csv_schema(tmp_path):
    records = run_sweep(small_config())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(records, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,realization,regime,c_max,delta_rc,diverged,seed"
    cells = lines[1].split(",")
    assert len(cells) == 8
    assert cells[6] in ("true", "false")
