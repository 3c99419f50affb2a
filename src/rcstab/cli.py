"""Command-line front end: analyze, train, sweep, and basin commands.

All commands read a single JSON config with sections {dynamics, topology,
signal, runtime, sweep, basin}, honor --seed overrides, and drop a manifest
next to their outputs.  Exit codes: 0 success (a diverged run is a reported
outcome, not a failure), 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, dynamics, reservoir, stability, sweep
from .errors import (
    AnalysisError,
    ConfigError,
    ConstructionError,
    IntegrationDivergedError,
    RcstabError,
    SpectralRadiusError,
)
from .network import ReservoirNetwork, construct_adjacency
from .signals import SignalSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    AnalysisError,
    ConstructionError,
    SpectralRadiusError,
    IntegrationDivergedError,
    np.linalg.LinAlgError,
)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    block = cfg.get(name)
    if not isinstance(block, dict):
        raise ConfigError(f"config is missing the required {name!r} section")
    return block


def _optional_section(cfg: dict, name: str) -> dict:
    """The config's `name` section, or {} when the key is absent."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {block!r}")
    return block


@contextmanager
def _config_values():
    """Turn a missing, mistyped or out-of-range value met while building a
    command's inputs from the config into a ConfigError (exit code 2)."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _build_dynamics(cfg: dict) -> dynamics.NodalDynamics:
    return dynamics.from_config(_section(cfg, "dynamics"))


def _build_network(cfg: dict, seed_override=None) -> ReservoirNetwork:
    topo = _section(cfg, "topology")
    has_matrix = "matrix" in topo
    has_generative = "m" in topo
    if has_matrix == has_generative:
        raise ConfigError(
            "topology must give exactly one of an explicit 'matrix' or a "
            "generative node count 'm'"
        )
    if has_matrix:
        a = np.array(topo["matrix"], dtype=float)
        w = np.array(topo.get("w", np.zeros(a.shape[0])), dtype=float)
        return ReservoirNetwork(a=a, w=w, seed=None)
    seed = int(topo.get("seed", 0)) if seed_override is None else int(seed_override)
    return construct_adjacency(
        int(topo["m"]),
        seed=seed,
        spectral_target=float(topo.get("spectral_target", 0.5)),
        input_coupling=topo.get("input_coupling", "uniform"),
    )


def _build_signal(cfg: dict) -> SignalSpec:
    sig = _optional_section(cfg, "signal")
    return SignalSpec(
        source=sig.get("source", "lorenz"),
        input_component=sig.get("input_component", "x"),
        target_component=sig.get("target_component", "z"),
        dt=float(sig.get("dt", 0.02)),
        transient_steps=int(sig.get("transient_steps", 5000)),
        initial=tuple(sig["initial"]) if "initial" in sig else None,
        params=sig.get("params"),
    )


def _runtime(cfg: dict) -> reservoir.RuntimeParams:
    rt = _optional_section(cfg, "runtime")
    return reservoir.RuntimeParams(
        transient=int(rt.get("transient", 2000)),
        n_keep=int(rt.get("n_keep", 10000)),
        dt=float(rt.get("dt", 0.02)),
    )


def _time_kind(cfg: dict) -> str:
    kind = _optional_section(cfg, "runtime").get("time_kind", "continuous")
    if kind not in ("continuous", "discrete"):
        raise ConfigError(f"runtime.time_kind must be continuous or discrete: {kind!r}")
    return kind


def _jsonable(value):
    """Make report values JSON-safe (non-finite floats become strings)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(float(value))
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(float(v)) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed) -> None:
    digest = hashlib.sha256(
        json.dumps(_jsonable(cfg), sort_keys=True).encode("utf-8")
    ).hexdigest()
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    created = float(epoch) if epoch is not None else time.time()
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "config_digest": digest,
            "seed": seed,
            "version": __version__,
            "created_utc": created,
        },
    )


def _report_payload(report: stability.StabilityReport) -> dict:
    return {
        "regime": report.regime.value,
        "c_max": report.c_max,
        "kstar_at_cmax": report.kstar_at_cmax,
        "threshold": report.threshold,
        "binding_side": report.binding_side,
    }


def cmd_analyze(cfg: dict, out_dir: Path, args) -> int:
    with _config_values():
        f = _build_dynamics(cfg)
        net = _build_network(cfg, args.seed)
        kind = _time_kind(cfg)
        if kind == "continuous" and not f.origin_fixed():
            raise ConfigError("continuous-time analysis requires dynamics with f(0) = 0")
    report = stability.analyze(net, f, kind)
    payload = _report_payload(report)
    if kind == "continuous":
        payload["alpha_max"] = -report.threshold
    else:
        payload["rho_minus"], payload["rho_plus"] = report.threshold
    c_txt = "inf" if math.isinf(report.c_max) else f"{report.c_max:.6f}"
    print(f"regime={report.regime.value} c_max={c_txt}")
    if kind == "continuous":
        print(f"threshold=-alpha_max={report.threshold:.6f}")
    else:
        rm, rp = report.threshold
        print(f"threshold rho_minus={rm:.6f} rho_plus={rp:.6f}")
    print(f"binding K at c_max: {report.kstar_at_cmax:.6f}")
    _write_json(out_dir / "analysis.json", payload)
    _write_manifest(out_dir, "analyze", cfg, args.seed)
    return EXIT_OK


def cmd_train(cfg: dict, out_dir: Path, args) -> int:
    with _config_values():
        f = _build_dynamics(cfg)
        net = _build_network(cfg, args.seed)
        kind = _time_kind(cfg)
        rt = _runtime(cfg)
        spec = _build_signal(cfg)
    if kind == "continuous" and spec.dt != rt.dt:
        raise ConfigError(
            f"continuous drive step {rt.dt} must equal signal dt {spec.dt}"
        )
    pair = spec.build(rt.transient + rt.n_keep)
    ((_, step, fitted),) = reservoir.train(net, [(None, f)], pair, kind, rt)
    if isinstance(fitted, Exception):
        raise fitted
    payload = {
        "diverged": fitted is None,
        "seed": args.seed if args.seed is not None else net.seed,
        "parameters": f.to_config(),
    }
    if fitted is None:
        payload.update(delta_rc=None, k=None, divergence_step=step)
        print(f"status=diverged at step {step}")
    else:
        payload.update(delta_rc=fitted.delta_rc, k=fitted.k)
        print(f"delta_rc={fitted.delta_rc:.6f}")
        if args.dump_omega:
            np.savetxt(out_dir / "omega.csv", fitted.omega, delimiter=",", fmt="%.17g")
    _write_json(out_dir / "training.json", payload)
    _write_manifest(out_dir, "train", cfg, args.seed)
    return EXIT_OK


def _build_sweep_config(cfg: dict, args) -> sweep.SweepConfig:
    sw = _section(cfg, "sweep")
    ax, ay = sw["axis_x"], sw["axis_y"]
    grid = sweep.GridSpec(
        x_min=float(ax["min"]), x_max=float(ax["max"]), x_steps=int(ax["steps"]),
        y_min=float(ay["min"]), y_max=float(ay["max"]), y_steps=int(ay["steps"]),
    )
    topo = _section(cfg, "topology")
    if "matrix" in topo:
        raise ConfigError("a sweep needs a generative topology 'm', one seed per realization")
    base_seed = int(sw.get("base_seed", topo.get("seed", 0)) if args.seed is None else args.seed)
    n_realizations = int(sw.get("n_realizations", 1))
    return sweep.SweepConfig(
        time_kind=_time_kind(cfg),
        template=_build_dynamics(cfg),
        axis_x=ax["param"],
        axis_y=ay["param"],
        grid=grid,
        networks=tuple(_build_network(cfg, base_seed + k) for k in range(n_realizations)),
        task=_build_signal(cfg),
        runtime=_runtime(cfg),
    )


def cmd_sweep(cfg: dict, out_dir: Path, args) -> int:
    with _config_values():
        config = _build_sweep_config(cfg, args)
        boundary = cfg["sweep"].get("boundary")
        if boundary:
            if not isinstance(boundary, dict):
                raise ConfigError(f"sweep.boundary must be an object, got {boundary!r}")
            level = boundary.get("level", "global")
            sweep.check_boundary(config, level)
    records = sweep.run_sweep(config)
    if args.format == "json":
        _write_json(
            out_dir / "sweep.json", {"records": [vars(r) for r in records]}
        )
    else:
        sweep.write_sweep_csv(records, out_dir / "sweep.csv")
    if boundary:
        points = sweep.boundary_curve(config, level)
        sweep.write_boundary_csv(points, out_dir / "boundary.csv")
    n_div = sum(1 for r in records if r.diverged)
    n_err = sum(1 for r in records if r.regime == "error")
    print(f"cells={len(records)} diverged={n_div} errors={n_err}")
    _write_manifest(out_dir, "sweep", cfg, config.networks[0].seed)
    return EXIT_OK


def cmd_basin(cfg: dict, out_dir: Path, args) -> int:
    with _config_values():
        f = _build_dynamics(cfg)
        net = _build_network(cfg, args.seed)
        basin_cfg = _optional_section(cfg, "basin")
        (r1_lo, r1_hi), (r2_lo, r2_hi) = basin_cfg.get("window", [[-4.0, 4.0], [-4.0, 4.0]])
        options = dict(
            window=((float(r1_lo), float(r1_hi)), (float(r2_lo), float(r2_hi))),
            resolution=int(basin_cfg.get("resolution", 200)),
            t_final=float(basin_cfg.get("t_final", 50.0)),
            dt=float(basin_cfg.get("dt", 0.02)),
        )
        if options["resolution"] < 1:
            raise ConfigError(f"basin.resolution must be at least 1, got {options['resolution']}")
        stability.step_count(options["t_final"], options["dt"])  # rejects bad steps
    basin = sweep.basin_map(net, f, **options)
    sweep.write_basin_csv(basin, out_dir / "basin.csv")
    frac = float(basin.converged.mean())
    print(f"converged fraction over window: {frac:.4f}")
    _write_manifest(out_dir, "basin", cfg, args.seed)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "basin": cmd_basin,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcstab",
        description="Stability regions and training error maps for reservoir computers",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="rcstab-out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--dump-omega", action="store_true", help="also write the regression matrix"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RcstabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
