"""Fresh-process side of the benchmark.

    child.py verify CONFIG SEED RADIUS... OUT     basin_verify at each radius
    child.py trace SPANS cli ARG...               rcstab's CLI with spans recorded
    child.py trace SPANS verify ...               the verify calls with spans recorded
    child.py setup cli ARG... | setup verify ...  the same command, stopped at its
                                                  first unit of work

Traced runs wrap the public functions of each rcstab module from outside:
every module attribute that refers to one of them is replaced by a wrapper
that records a span (name, start, end, parent, wall and process CPU time),
so calls the program makes between its own modules are seen too.  Spans are
kept in memory and written to SPANS as JSON when the command ends.

A set-up run wraps the calls in STOP_AT the same way, with a wrapper that
ends the process with exit code 0 before the first of them does any work.
So its wall time, launch to exit, is the program's own set-up: the import,
the config, the signal pair and the networks with their spectra.  It exits 1
when the command ends without reaching one of those calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (module, attribute, span name) of every call the traced run times
LAYER_CALLS = [
    ("rcstab.signals", "SignalSpec.build", "signals.build"),
    ("rcstab.network", "construct_adjacency", "network.construct"),
    ("rcstab.network", "alpha_max", "network.spectral"),
    ("rcstab.network", "critical_shifts", "network.spectral"),
    ("rcstab.stability", "fixed_point", "stability.fixed_point"),
    ("rcstab.stability", "cmax_continuous", "stability.cmax"),
    ("rcstab.stability", "cmax_discrete", "stability.cmax"),
    ("rcstab.stability", "simulate_unforced", "stability.unforced"),
    ("rcstab.reservoir", "drive_continuous", "reservoir.drive"),
    ("rcstab.reservoir", "drive_discrete", "reservoir.drive"),
    ("rcstab.reservoir", "build_omega", "reservoir.build_omega"),
    ("rcstab.reservoir", "fit_readout", "reservoir.fit_readout"),
    ("rcstab.sweep", "run_sweep", "sweep.run_sweep"),
    ("rcstab.sweep", "SweepConfig.cell_dynamics", "sweep.cell_dynamics"),
    ("rcstab.sweep", "boundary_curve", "sweep.boundary"),
    ("rcstab.sweep", "basin_map", "sweep.basin_map"),
    ("rcstab.sweep", "write_sweep_csv", "cli.write"),
    ("rcstab.sweep", "write_boundary_csv", "cli.write"),
    ("rcstab.sweep", "write_basin_csv", "cli.write"),
    ("rcstab.cli", "_write_json", "cli.write"),
]

#: (module, attribute) of the first unit of work of each command: a sweep
#: cell, the certificate of `analyze`, the integration of `basin` and of
#: `basin_verify`
STOP_AT = [
    ("rcstab.sweep", "SweepConfig.cell_dynamics"),
    ("rcstab.stability", "analyze"),
    ("rcstab.stability", "simulate_unforced"),
]


def import_rcstab():
    """Import the package under test from the checkout's src/, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import rcstab.cli

    if not Path(rcstab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rcstab imported from {rcstab.cli.__file__}, not {SRC}")
    return rcstab


def replace(module_name: str, attr: str, make) -> None:
    """Replace a public function of rcstab by make(function), in every rcstab
    module that refers to it (or on its class, for a method).  A function
    that is not there stops the run, so a renamed layer fails loudly rather
    than reading as zero time."""
    owner_name, _, fname = attr.rpartition(".")
    owner = sys.modules[module_name]
    if owner_name:
        owner = getattr(owner, owner_name, None)
    original = getattr(owner, fname, None)
    if original is None:
        raise SystemExit(f"{module_name}.{attr} not found; update perfbench/child.py")
    wrapped = make(original)
    if owner_name:
        setattr(owner, fname, wrapped)
        return
    for module in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rcstab"]:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._fits = 0

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["wall"] = rec["end"] - rec["start"]
            rec["cpu"] = time.process_time() - cpu0
            self._stack.pop()

    def wrap(self, name: str, fn):
        note = {
            "reservoir.drive": self._note_drive,
            "reservoir.fit_readout": self._note_fit,
            "stability.unforced": self._note_unforced,
        }.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note(rec, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in LAYER_CALLS:
            replace(module_name, attr, lambda fn, name=name: self.wrap(name, fn))

    @staticmethod
    def _note_drive(rec, args, result):
        steps = result.divergence_step + 1 if result.diverged else result.states.shape[0]
        rec.update(steps=int(steps), states_bytes=int(result.states.nbytes), diverged=bool(result.diverged))

    def _note_fit(self, rec, args, result):
        import numpy as np

        from checks import check_resolve, resolve_delta_rc

        rec["cold"] = self._fits == 0
        self._fits += 1
        with self.span("trace.check"):
            omega = np.asarray(args["omega"], dtype=float)
            g = np.asarray(args["g"], dtype=float)
            rec["violations"] = check_resolve(result.delta_rc, resolve_delta_rc(omega, g))

    @staticmethod
    def _note_unforced(rec, args, result):
        rows = len(result)
        rec["row_steps"] = int(rows * round(args["t_final"] / args["dt"]))


def verify(config_path: str, seed: int, radii: list[float], out_path: str) -> None:
    """basin_verify through the public API, one call per radius."""
    rcstab = import_rcstab()
    import numpy as np

    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    f = rcstab.dynamics.from_config(cfg["dynamics"])
    a = np.array(cfg["topology"]["matrix"], dtype=float)
    net = rcstab.ReservoirNetwork(a=a, w=np.zeros(a.shape[0]))
    basin = cfg["basin"]
    fractions = [
        rcstab.basin_verify(net, f, c, 10_000, seed, t_final=basin["t_final"], dt=basin["dt"])
        for c in radii
    ]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"radii": radii, "fractions": fractions}, fh)


def verify_args(argv: list[str]) -> tuple:
    config, seed, *radii, out = argv
    return config, int(seed), [float(r) for r in radii], out


def run_command(rcstab, mode: str, argv: list[str]) -> int:
    if mode == "cli":
        return rcstab.cli.main(argv)
    verify(*verify_args(argv))
    return 0


def trace(spans_path: str, mode: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        rcstab = import_rcstab()
    tracer.install()
    rc = run_command(rcstab, mode, argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


def _stop(fn):
    @functools.wraps(fn)
    def stop(*args, **kwargs):
        sys.stdout.flush()
        os._exit(0)

    return stop


def setup(mode: str, argv: list[str]) -> int:
    rcstab = import_rcstab()
    for module_name, attr in STOP_AT:
        replace(module_name, attr, _stop)
    rc = run_command(rcstab, mode, argv)
    print(f"command ended (exit code {rc}) before its first unit of work", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest[0], rest[1:])
    if mode == "verify":
        verify(*verify_args(rest))
        return 0
    if mode == "trace":
        return trace(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
