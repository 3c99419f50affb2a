"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from rcstab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_shipped_configs_parse():
    for name in (
        "two_node_analyze.json", "tanh_analyze.json", "two_node_basin.json",
        "lorenz_train.json", "cubic_sweep.json", "quartic_sweep.json",
        "sigmoid_sweep.json", "smoke_sweep.json",
    ):
        json.loads((CONFIGS / name).read_text())
