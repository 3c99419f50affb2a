"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rcstab
from rcstab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: the directory this rcstab was imported from, for fresh subprocesses
SRC = str(Path(rcstab.__file__).resolve().parent.parent)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_train_config(**over):
    cfg = {
        "dynamics": {"kind": "polynomial", "coefficients": [-3, 1, -1]},
        "topology": {"m": 20, "seed": 0, "spectral_target": 0.5,
                     "input_coupling": "signs"},
        "signal": {"source": "lorenz", "input_component": "x",
                   "target_component": "z", "dt": 0.02, "transient_steps": 2000},
        "runtime": {"time_kind": "continuous", "transient": 200,
                    "n_keep": 1500, "dt": 0.02},
    }
    cfg.update(over)
    return cfg


class TestAnalyze:
    def test_two_node_reference(self, tmp_path, capsys):
        rcode = main(
            ["analyze", "--config", str(CONFIGS / "two_node_analyze.json"),
             "--out", str(tmp_path)]
        )
        assert rcode == 0
        out = capsys.readouterr().out
        assert "regime=finite_region" in out
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert abs(payload["c_max"] - 1.0) <= 1e-6
        assert (tmp_path / "manifest.json").exists()

    def test_tanh_reports_bound_and_window(self, tmp_path):
        rcode = main(
            ["analyze", "--config", str(CONFIGS / "tanh_analyze.json"),
             "--out", str(tmp_path)]
        )
        assert rcode == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        # K-* = p1*p2 = -1 binds below rho_minus = -0.8 for this topology
        assert payload["kstar_at_cmax"] == -1.0
        assert abs(payload["rho_minus"] - (-0.8)) <= 1e-9
        assert abs(payload["rho_plus"] - 0.8) <= 1e-9

    def test_missing_dynamics_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"topology": {"m": 4, "seed": 1}})
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dynamics": {\n')
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "bad.json:" in capsys.readouterr().err

    def test_exclusive_topology(self, tmp_path):
        cfg = small_train_config()
        cfg["topology"] = {"m": 4, "seed": 0, "matrix": [[0.0]]}
        path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_out_of_range_node_count_exits_2(self, tmp_path):
        cfg = small_train_config()
        cfg["topology"]["m"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_continuous_dynamics_off_origin_exits_2(self, tmp_path, capsys):
        cfg = {
            "dynamics": {"kind": "sigmoid", "p1": 4, "p2": 2},
            "topology": {"matrix": [[0, 1], [-1, 0]]},
            "runtime": {"time_kind": "continuous"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
        assert "f(0) = 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dyn",
        [
            {"kind": "shifted", "base": {"kind": "tanh", "p1": 1, "p2": 1},
             "shift": 0, "offset": 0},
            {"kind": "relu", "p1": 1, "p2": 1},
        ],
        ids=["shifted", "relu"],
    )
    def test_unknown_dynamics_kind_exits_2(self, tmp_path, capsys, dyn):
        # the two-node rotation at half scale keeps its eigenvalues inside the
        # unit circle, so only the dynamics kind can make this exit nonzero
        cfg = {
            "dynamics": dyn,
            "topology": {"matrix": [[0, 0.5], [-0.5, 0]]},
            "runtime": {"time_kind": "discrete"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
        assert "unknown dynamics kind" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path):
        # flat sigmoid with unit self-coupling has no fixed point
        cfg = {
            "dynamics": {"kind": "sigmoid", "p1": 5.0, "p2": 0.0},
            "topology": {"matrix": [[1.0]]},
            "runtime": {"time_kind": "discrete"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["analyze", "--config", path, "--out", str(tmp_path)]) == 3


class TestTrain:
    def test_stable_cubic(self, tmp_path, capsys):
        path = write_config(tmp_path, small_train_config())
        assert main(["train", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "training.json").read_text())
        assert payload["diverged"] is False
        assert 0.0 < payload["delta_rc"] < 1.0
        assert len(payload["k"]) == 21

    def test_divergent_run_reports_status(self, tmp_path, capsys):
        cfg = small_train_config(
            dynamics={"kind": "polynomial", "coefficients": [-3, 0, 3]}
        )
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "training.json").read_text())
        assert payload["diverged"] is True
        assert "diverged" in capsys.readouterr().out

    def test_self_task_regression_anchor(self, tmp_path):
        cfg = small_train_config()
        cfg["signal"]["target_component"] = "x"
        cfg["signal"]["transient_steps"] = 2000
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "training.json").read_text())
        # value recorded from this pipeline at build time
        assert payload["delta_rc"] == pytest.approx(0.1783958983457368, abs=1e-6)

    @pytest.mark.parametrize("runtime", [{"n_keep": 0}, {"transient": -5}])
    def test_bad_runtime_value_exits_2(self, tmp_path, capsys, runtime):
        cfg = small_train_config()
        cfg["runtime"].update(runtime)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []


class TestSweepCommand:
    def test_smoke_sweep(self, tmp_path):
        rcode = main(
            ["sweep", "--config", str(CONFIGS / "smoke_sweep.json"),
             "--out", str(tmp_path)]
        )
        assert rcode == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "x,y,realization,regime,c_max,delta_rc,diverged,seed"
        assert len(lines) == 5

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["sweep", "--config", str(CONFIGS / "smoke_sweep.json"),
                 "--out", str(out)]
            ) == 0
            outs.append(out)
        for fname in ("sweep.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        cfgp = str(CONFIGS / "smoke_sweep.json")
        assert main(["sweep", "--config", cfgp, "--out", str(a), "--seed", "5"]) == 0
        assert main(["sweep", "--config", cfgp, "--out", str(b), "--seed", "5"]) == 0
        assert main(["sweep", "--config", cfgp, "--out", str(c), "--seed", "6"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep.csv").read_bytes() != (c / "sweep.csv").read_bytes()

    def test_json_format(self, tmp_path):
        rcode = main(
            ["sweep", "--config", str(CONFIGS / "smoke_sweep.json"),
             "--out", str(tmp_path), "--format", "json"]
        )
        assert rcode == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["records"]) == 4

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("topology", "m", 1),
            ("topology", "input_coupling", "bogus"),
            ("runtime", "n_keep", 0),
            ("runtime", "transient", -5),
            ("axis_x", "param", "q2"),
            ("axis_y", "param", "p0"),
        ],
    )
    def test_bad_value_exits_2_before_the_sweep(self, tmp_path, capsys, section, key, value):
        cfg = json.loads((CONFIGS / "smoke_sweep.json").read_text())
        block = cfg["sweep"][section] if section.startswith("axis") else cfg[section]
        block[key] = value
        rcode = main(["sweep", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out")])
        assert rcode == 2
        assert "config error" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "topology",
        [{"matrix": [[0, 1], [-1, 0]]}, {"seed": 0, "input_coupling": "signs"}],
        ids=["matrix", "no-m"],
    )
    def test_sweep_needs_a_generative_topology(self, tmp_path, capsys, topology):
        # each realization draws its own network from its seed, at the given m
        cfg = json.loads((CONFIGS / "smoke_sweep.json").read_text())
        cfg["topology"] = topology
        rcode = main(["sweep", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out")])
        assert rcode == 2
        assert "config error" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_tanh_sweep_over_p2_keeps_bad_cells_local(self, tmp_path):
        # p2 <= 0 is no scaled tanh: those cells fail alone, as regime error
        cfg = json.loads((CONFIGS / "smoke_sweep.json").read_text())
        cfg["dynamics"] = {"kind": "tanh", "p1": -1.0, "p2": 1.0}
        cfg["sweep"]["axis_x"] = {"param": "p1", "min": -2, "max": -1, "steps": 2}
        cfg["sweep"]["axis_y"] = {"param": "p2", "min": 0, "max": 1, "steps": 2}
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        regimes = [line.split(",")[3] for line in
                   (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]]
        assert regimes.count("error") == 2 and len(regimes) == 4


def smoke_sweep_with(boundary, time_kind="continuous"):
    cfg = json.loads((CONFIGS / "smoke_sweep.json").read_text())
    cfg["sweep"]["boundary"] = boundary
    cfg["runtime"]["time_kind"] = time_kind
    return cfg


def sigmoid_sweep_with(boundary):
    """The smoke sweep over a continuous sigmoid, whose f(0) = p1/2."""
    cfg = smoke_sweep_with(boundary)
    cfg["dynamics"] = {"kind": "sigmoid", "p1": 1, "p2": 0.5}
    cfg["sweep"]["axis_x"] = {"param": "p1", "min": -2, "max": 2, "steps": 2}
    cfg["sweep"]["axis_y"] = {"param": "p2", "min": 0.25, "max": 0.75, "steps": 2}
    return cfg


class TestBoundarySettings:
    @pytest.mark.parametrize(
        "cfg",
        [
            smoke_sweep_with({"level": -1.0}),
            smoke_sweep_with({"level": "local"}),
            smoke_sweep_with({"level": float("inf")}),  # written as Infinity
            smoke_sweep_with({"level": True}),  # a bool is not radius 1
            smoke_sweep_with({"level": 10**400}),  # an integer beyond float range
            smoke_sweep_with({"level": "global"}, time_kind="discrete"),
            smoke_sweep_with(["global"]),
            sigmoid_sweep_with({"level": "global"}),
            sigmoid_sweep_with({"level": 1.0}),
        ],
        ids=["negative", "unknown", "infinity", "bool", "beyond-float", "discrete",
             "not-an-object", "sigmoid-global", "sigmoid-radius"],
    )
    def test_bad_boundary_exits_2_before_the_sweep(self, tmp_path, capsys, cfg):
        rcode = main(["sweep", "--config", write_config(tmp_path, cfg),
                      "--out", str(tmp_path / "out")])
        assert rcode == 2
        assert "config error" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_numeric_level_writes_boundary(self, tmp_path):
        cfg = smoke_sweep_with({"level": 1})
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "boundary.csv").read_text().strip().split("\n")
        assert lines[0] == "x,y"


class TestBasinCommand:
    def test_tiny_window(self, tmp_path):
        cfg = {
            "dynamics": {"kind": "polynomial", "coefficients": [-3, 4, -1]},
            "topology": {"matrix": [[0, 1], [-1, 0]]},
            "basin": {"window": [[-0.3, 0.3], [-0.3, 0.3]], "resolution": 7,
                      "t_final": 50, "dt": 0.02},
        }
        path = write_config(tmp_path, cfg)
        assert main(["basin", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "basin.csv").read_text().strip().split("\n")
        assert lines[0] == "r1,r2,converged"
        assert len(lines) == 50
        assert all(line.endswith("true") for line in lines[1:])

    @pytest.mark.parametrize(
        "basin",
        [
            {"resolution": "abc"},
            {"window": [["a", 1], [0, 1]], "resolution": 3},
            {"resolution": -1},
            {"resolution": 0},
            {"dt": 0},
            {"dt": -0.02},
            {"t_final": -5},
            {"t_final": 1e308, "dt": 1e-10},
            {"window": [[-math.inf, 4], [-4, 4]], "resolution": 3},
        ],
    )
    def test_malformed_basin_value_exits_2(self, tmp_path, basin):
        cfg = {
            "dynamics": {"kind": "polynomial", "coefficients": [-3, 4, -1]},
            "topology": {"matrix": [[0, 1], [-1, 0]]},
            "basin": basin,
        }
        path = write_config(tmp_path, cfg)
        assert main(["basin", "--config", path, "--out", str(tmp_path)]) == 2

    def test_globally_stable_window_fully_converged(self, tmp_path):
        cfg = {
            "dynamics": {"kind": "polynomial", "coefficients": [-3, 1, -1]},
            "topology": {"matrix": [[0, 1], [-1, 0]]},
            "basin": {"window": [[-4, 4], [-4, 4]], "resolution": 8,
                      "t_final": 50, "dt": 0.02},
        }
        path = write_config(tmp_path, cfg)
        assert main(["basin", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "basin.csv").read_text().strip().split("\n")[1:]
        assert all(line.endswith("true") for line in lines)


@pytest.mark.parametrize(
    "command, name, key, value",
    [
        ("analyze", "two_node_analyze.json", "runtime", "discrete"),
        ("basin", "two_node_basin.json", "basin", [1]),
        ("sweep", "smoke_sweep.json", "signal", "lorenz"),
        ("train", "lorenz_train.json", "runtime", None),
    ],
)
def test_non_object_section_exits_2(tmp_path, capsys, command, name, key, value):
    cfg = json.loads((CONFIGS / name).read_text())
    cfg[key] = value
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert f"section {key!r} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "basin", "sweep", "train"])
def test_non_object_config_exits_2(tmp_path, capsys, command):
    path = write_config(tmp_path, [1, 2])
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_shipped_configs_parse():
    for name in (
        "two_node_analyze.json", "tanh_analyze.json", "two_node_basin.json",
        "lorenz_train.json", "cubic_sweep.json", "quartic_sweep.json",
        "sigmoid_sweep.json", "smoke_sweep.json",
    ):
        json.loads((CONFIGS / name).read_text())


def run_fresh(args, threads):
    """Run `python args` in a fresh process that imports this rcstab, with
    OPENBLAS_NUM_THREADS set to `threads`, or removed when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


class TestBlasPin:
    @pytest.mark.parametrize("threads, expected", [(None, "1"), ("3", "3")])
    def test_import_sets_one_thread_unless_chosen(self, threads, expected):
        probe = "import os, rcstab; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_fresh(["-c", probe], threads).stdout.strip() == expected

    def test_unset_sweep_matches_one_thread(self, tmp_path):
        """With OPENBLAS_NUM_THREADS unset, a sweep writes the bytes of a
        one-thread run.  Without the pin, this config's `delta_rc` differs
        between one and two OpenBLAS threads, so the test fails there on two
        or more cores; on one core it passes trivially."""
        cfg = {
            "dynamics": {"kind": "sigmoid", "p1": 0.0, "p2": 0.5},
            "topology": {"m": 100, "seed": 0, "input_coupling": "signs"},
            "signal": {"source": "lorenz", "input_component": "x",
                       "target_component": "z", "dt": 0.02, "transient_steps": 1000},
            "runtime": {"time_kind": "discrete", "transient": 200, "n_keep": 5000,
                        "dt": 0.02},
            "sweep": {
                "axis_x": {"param": "p1", "min": -3, "max": 3, "steps": 2},
                "axis_y": {"param": "p2", "min": 0.25, "max": 0.75, "steps": 2},
                "n_realizations": 1,
            },
        }
        path = write_config(tmp_path, cfg)
        outs = []
        for name, threads in (("unset", None), ("one", "1")):
            out = tmp_path / name
            run_fresh(["-m", "rcstab.cli", "sweep", "--config", path, "--out", str(out)],
                      threads)
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
