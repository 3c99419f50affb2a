"""End-to-end benchmark of rcstab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's commands, each command in a fresh
process, until S seconds have passed, and checks every round's outputs
against numbers computed here from the realization's own adjacency matrix.
With --trace 0 it reports the end-to-end metrics (medians over rounds), and
before every round it runs the round's commands through child.py stopped at
their first unit of work, to time set-up; with --trace 1 every untraced
round is followed by the same round run through child.py's tracer, and it
reports per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every check held, 1 on a check violation, 2 on bad usage or
a checkout without src/rcstab.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
PY = sys.executable

#: a run must end within 180 s; processes still running at this point are killed
RUN_LIMIT_S = 170.0
#: set-up rounds (every command stopped at its first unit of work) run before
#: every untraced round, so that they meet the same machine load; setup_s is
#: the median of their summed wall times.  One per round keeps a run, set-up
#: included, near 40 s.
SETUP_PROBES = 1

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# -- workloads --------------------------------------------------------------
# Each workload gives its configs for a seed, runs one round of commands and
# checks that round's outputs.  The configs are kept here rather than read
# from configs/ so that a change to the shipped configs cannot change what
# the benchmark measures.

LORENZ = {"source": "lorenz", "input_component": "x", "target_component": "z", "dt": 0.02, "transient_steps": 5000}


def sweep_config(dynamics, time_kind, axis_x, axis_y, seed, boundary=False):
    cfg = {
        "dynamics": dynamics,
        "topology": {"m": 100, "seed": seed, "spectral_target": 0.5, "input_coupling": "signs"},
        "signal": LORENZ,
        "runtime": {"time_kind": time_kind, "transient": 2000, "n_keep": 10000, "dt": 0.02},
        "sweep": {"axis_x": axis_x, "axis_y": axis_y, "n_realizations": 1, "base_seed": seed},
    }
    if boundary:
        cfg["sweep"]["boundary"] = {"level": "global"}
    return cfg


def axis(param, lo, hi, steps):
    return {"param": param, "min": lo, "max": hi, "steps": steps}


TWO_NODE = {
    "dynamics": {"kind": "polynomial", "coefficients": [-3, 4, -1]},
    "topology": {"matrix": [[0, 1], [-1, 0]]},
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    def command(self, proc: "Proc", ops: int = 1) -> bool:
        """Count a command making `ops` operations; True when it exited 0."""
        self.attempted += ops
        if proc.rc != 0:
            self.failed += ops
            self.violations.append(f"{proc.name}: exit code {proc.rc}")
        return proc.rc == 0

    def sweep(self, rows: list[dict], spec: dict, faults: int = 0) -> None:
        """Count a sweep's cells; error cells and known-fault cells fail.
        The cells must be exactly those of the config's grid."""
        self.attempted += len(rows)
        self.failed += faults + sum(1 for r in rows if r["regime"] == "error")
        self.violations += checks.check_grid(rows, spec) + checks.check_sweep_common(rows)


class CubicErrorMap:
    """Continuous cubic nodes f = -3r + p2 r^2 + p3 r^3 over (p2, p3).

    The map sweep runs at the given seed on rows and columns of the shipped
    21x21 grid whose cells cannot meet the RK4 fault.  The fault sweep runs
    at the fixed seed 0, so that its inputs do not depend on the seed: the
    p3 = -0.2 row at |p2| = 10 holds two dissipative cells that the one-step
    RK4 drive reports as diverged, and the p3 = 4 row two cells that do
    diverge.
    """

    name = "cubic-error-map"
    template = {"kind": "polynomial", "coefficients": [-3]}

    def configs(self, seed):
        return {
            "map": sweep_config(self.template, "continuous", axis("p2", -8, 8, 3), axis("p3", -9.3, 3.3, 3), seed, boundary=True),
            "fault": sweep_config(self.template, "continuous", axis("p2", -10, 10, 2), axis("p3", -0.2, 4.0, 2), 0),
        }

    def run(self, rnd, seed):
        rnd.cli("map", "sweep", seed)
        rnd.cli("fault", "sweep", 0)

    def check(self, rnd, seed, facts):
        out = Outcome()
        for name, cfg in self.configs(seed).items():
            if not out.command(rnd.procs[name]):
                continue
            rows = checks.read_sweep_csv(rnd.dir / name / "sweep.csv")
            out.sweep(rows, cfg["sweep"], faults=checks.cubic_faults(rows))
            out.violations += checks.check_cubic(rows, {r["seed"]: facts.alpha(r["seed"]) for r in rows})
            if name == "map":
                points = checks.read_points_csv(rnd.dir / name / "boundary.csv")
                out.violations += checks.check_boundary(points, facts.alpha(seed), cfg["sweep"])
        return out


class SigmoidWindowMap:
    """Discrete sigmoid nodes over (p1, p2), with the p1 = 0 cells whose
    certificate is the slowest in the package."""

    name = "sigmoid-window-map"

    def configs(self, seed):
        dyn = {"kind": "sigmoid", "p1": 0.0, "p2": 0.5}
        return {"map": sweep_config(dyn, "discrete", axis("p1", -6, 6, 5), axis("p2", 0.25, 0.75, 2), seed)}

    def run(self, rnd, seed):
        rnd.cli("map", "sweep", seed)

    def check(self, rnd, seed, facts):
        out = Outcome()
        if out.command(rnd.procs["map"]):
            rows = checks.read_sweep_csv(rnd.dir / "map" / "sweep.csv")
            out.sweep(rows, self.configs(seed)["map"]["sweep"])
            out.violations += checks.check_sigmoid(rows, {r["seed"]: facts.window(r["seed"]) for r in rows})
        return out


class TwoNodeBasin:
    """The two-node reference q(r) = -3 + 4r - r^2 with a rotation A:
    analyze, a 200x200 basin map and two basin_verify calls."""

    name = "two-node-basin"

    def configs(self, seed):
        return {
            "analyze": {**TWO_NODE, "runtime": {"time_kind": "continuous"}},
            "basin": {**TWO_NODE, "basin": {"window": [[-4, 4], [-4, 4]], "resolution": 200, "t_final": 50, "dt": 0.02}},
        }

    def run(self, rnd, seed):
        rnd.cli("analyze", "analyze", seed)
        rnd.cli("basin", "basin", seed)
        analysis = rnd.dir / "analyze" / "analysis.json"
        c_max = checks.read_json_number(analysis, "c_max") if analysis.is_file() else 1.0
        rnd.verify("verify", "basin", seed, [0.999 * c_max, 3.0])

    def check(self, rnd, seed, facts):
        out = Outcome()
        ok = [out.command(rnd.procs[name]) for name in ("analyze", "basin")]
        verified = out.command(rnd.procs["verify"], ops=2)
        if all(ok) and verified:
            c_max = checks.read_json_number(rnd.dir / "analyze" / "analysis.json", "c_max")
            points, converged = checks.read_basin_csv(rnd.dir / "basin" / "basin.csv")
            with open(rnd.dir / "verify" / "verify.json", encoding="utf-8") as fh:
                inside, outside = json.load(fh)["fractions"]
            out.violations += checks.check_basin_grid(points, self.configs(seed)["basin"]["basin"])
            out.violations += checks.check_two_node(c_max, points, converged, inside, outside)
        return out


WORKLOADS = {w.name: w for w in (CubicErrorMap(), SigmoidWindowMap(), TwoNodeBasin())}


# -- processes and rounds -------------------------------------------------


@dataclass
class Proc:
    name: str
    rc: int
    wall: float
    cpu: float
    rss_mb: float


class Runner:
    """Runs fresh processes through spawner.py, which measures each with
    wait4 and kills any that would outlive the run's time limit.  Use it as
    a context manager, so the spawner is stopped on every way out."""

    def __init__(self, limit_at: float):
        self.limit_at = limit_at
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("RCSTAB_THREADS", None)  # the CLI's default worker count
        self.spawner = subprocess.Popen(
            [PY, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def run(self, name: str, argv: list[str], log: Path) -> Proc:
        seconds = max(1.0, self.limit_at - time.perf_counter())
        self.spawner.stdin.write(json.dumps({"argv": argv, "log": str(log), "seconds": seconds}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return Proc(name, reply["rc"], reply["wall"], reply["cpu"], reply["rss_mb"])


class Round:
    """One pass of a workload's commands in fresh processes, run plainly
    ("plain"), through the tracer ("traced") or stopped at their first unit
    of work ("setup"); outputs go to out_dir/<command name>/."""

    def __init__(self, runner: Runner, configs: dict[str, Path], out_dir: Path, kind: str):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        self.runner, self.configs, self.dir, self.kind = runner, configs, out_dir, kind
        self.procs: dict[str, Proc] = {}
        self.spans: list[list[dict]] = []

    def _run(self, name: str, mode: str, args: list[str]) -> None:
        spans = self.dir / f"{name}.spans.json"
        if self.kind == "traced":
            argv = [PY, str(CHILD), "trace", str(spans), mode, *args]
        elif self.kind == "setup":
            argv = [PY, str(CHILD), "setup", mode, *args]
        elif mode == "cli":
            argv = [PY, "-m", "rcstab.cli", *args]
        else:
            argv = [PY, str(CHILD), mode, *args]
        self.procs[name] = self.runner.run(name, argv, self.dir / f"{name}.log")
        if self.kind == "traced" and spans.is_file():
            with open(spans, encoding="utf-8") as fh:
                self.spans.append(json.load(fh)["spans"])

    def cli(self, name: str, command: str, seed: int) -> None:
        out = self.dir / name
        self._run(name, "cli", [command, "--config", str(self.configs[name]), "--out", str(out), "--seed", str(seed)])

    def verify(self, name: str, config: str, seed: int, radii: list[float]) -> None:
        out = self.dir / name
        out.mkdir()
        args = [str(self.configs[config]), str(seed), *map(repr, radii), str(out / "verify.json")]
        self._run(name, "verify", args)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs.values())

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs.values())

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs.values())


class Facts:
    """Spectral facts of each realization, computed here from its own A."""

    def __init__(self):
        self._alpha, self._window = {}, {}

    def _a(self, seed):
        import rcstab

        return rcstab.construct_adjacency(100, seed=seed, spectral_target=0.5, input_coupling="signs").a

    def alpha(self, seed: int) -> float:
        if seed not in self._alpha:
            self._alpha[seed] = checks.alpha_of(self._a(seed))
        return self._alpha[seed]

    def window(self, seed: int) -> tuple[float, float]:
        if seed not in self._window:
            self._window[seed] = checks.shift_window(self._a(seed))
        return self._window[seed]


def sweep_rows(rnd: Round) -> dict[str, list[dict]]:
    return {
        name: checks.read_sweep_csv(rnd.dir / name / "sweep.csv")
        for name, proc in rnd.procs.items()
        if proc.rc == 0 and (rnd.dir / name / "sweep.csv").is_file()
    }


def check(workload, rnd: Round, seed: int, facts: Facts) -> Outcome:
    """The workload's checks; an output that is missing or cannot be parsed
    is a violation too."""
    try:
        return workload.check(rnd, seed, facts)
    except (OSError, KeyError, ValueError) as exc:
        return Outcome(attempted=1, failed=1, violations=[f"unreadable output: {type(exc).__name__}: {exc}"])


# -- the run --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "rcstab" / "__init__.py").is_file():
        print(f"no rcstab package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    configs = {}
    for name, cfg in workload.configs(args.seed).items():
        configs[name] = run_dir / f"{name}.json"
        configs[name].write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    with Runner(t0 + RUN_LIMIT_S) as runner:
        return measure(args, workload, configs, runner, run_dir)


def measure(args, workload, configs: dict[str, Path], runner: Runner, run_dir: Path) -> int:
    facts = Facts()

    total = Outcome()
    setup, plain, traced, overheads, cells = [], [], [], [], []
    start = time.perf_counter()
    while True:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = Round(runner, configs, run_dir / "setup", "setup")
                workload.run(probe, args.seed)
                for p in probe.procs.values():
                    if p.rc != 0:
                        print(f"set-up of {p.name} failed with exit code {p.rc}; see {probe.dir / p.name}.log", file=sys.stderr)
                        return 1
                setup.append(probe.wall)
        rnd = Round(runner, configs, run_dir / "plain", "plain")
        workload.run(rnd, args.seed)
        result = check(workload, rnd, args.seed, facts)
        plain.append(rnd)
        if args.trace:
            trnd = Round(runner, configs, run_dir / "traced", "traced")
            workload.run(trnd, args.seed)
            tresult = check(workload, trnd, args.seed, facts)
            result.attempted += tresult.attempted
            result.failed += tresult.failed
            result.violations += [f"traced: {v}" for v in tresult.violations]
            result.violations += layers.violations(trnd.spans)
            expected = sweep_rows(rnd)
            for name, rows in sweep_rows(trnd).items():
                result.violations += [f"{name}: {v}" for v in checks.compare_records(rows, expected.get(name, []))]
            traced.append(layers.round_metrics(trnd.spans))
            overheads.append(trnd.wall - layers.check_time(trnd.spans) - rnd.wall)
            cells += [c for spans in trnd.spans for c in layers.cell_times(spans)]
        total.attempted += result.attempted
        total.failed += result.failed
        total.violations += result.violations
        if time.perf_counter() - start >= args.seconds or total.violations:
            break

    print(f"workload {workload.name}  seed {args.seed}  rounds {len(plain)}  trace {args.trace}")
    for rnd in plain:
        print("  round " + "  ".join(f"{p.name} {p.wall:.3f}s/{p.cpu:.3f}s" for p in rnd.procs.values()))
    if setup:
        print("  setup " + " ".join(f"{w:.3f}" for w in setup))
    e2e = {
        "wall_s": statistics.median(r.wall for r in plain),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "cpu_s": statistics.median(r.cpu for r in plain),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
    }
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in traced) for k, _ in layers.PER_LAYER}
        if cells:
            metrics["sweep.cell_s_p50"] = statistics.median(cells)
            metrics["sweep.cell_s_tail"], tail_name = layers.tail(cells)
            print(f"  sweep.cell_s_tail is the {tail_name} of {len(cells)} cells")
        metrics["trace.overhead_s"] = statistics.median(overheads)
        units = dict(layers.PER_LAYER)
    else:
        metrics, units = e2e, dict(END_TO_END)
    shown = {k: v for k, v in e2e.items() if setup or k != "setup_s"} | metrics
    for name, value in shown.items():
        print(f"  {name:32s} {value:14.6f} {(dict(END_TO_END) | units)[name]}")
    print(f"  attempted {total.attempted}  failed {total.failed}  violations {len(total.violations)}")
    for v in total.violations[:20]:
        print(f"  VIOLATION {v}")
    correct = not total.violations
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
