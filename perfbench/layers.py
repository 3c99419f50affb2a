"""Per-layer metrics from the spans of one traced round.

A round's spans come from several fresh processes, one list each.  A layer's
time is the summed wall time of its outermost spans (a span nested in one of
the same name, such as alpha_max inside critical_shifts, is not counted
twice).  A sweep cell runs from one `SweepConfig.cell_dynamics` call inside
`run_sweep` to the next, the last one to the end of `run_sweep`.
"""

from __future__ import annotations

import statistics

#: (metric, unit) in the order they are reported
PER_LAYER = [
    ("cli.import_s", "s"),
    ("signals.build_s", "s"),
    ("network.construct_s", "s"),
    ("network.spectral_s", "s"),
    ("stability.fixed_point_s", "s"),
    ("stability.fixed_point_calls", "count"),
    ("stability.cmax_s", "s"),
    ("stability.cmax_calls", "count"),
    ("stability.cmax_max_s", "s"),
    ("stability.unforced_s", "s"),
    ("stability.unforced_row_steps", "count"),
    ("reservoir.drive_s", "s"),
    ("reservoir.drive_cpu_s", "s"),
    ("reservoir.drive_steps", "count"),
    ("reservoir.drive_us_per_step", "us"),
    ("reservoir.states_mb", "MB"),
    ("reservoir.readout_s", "s"),
    ("reservoir.readout_cold_s", "s"),
    ("reservoir.diverged_runs", "count"),
    ("sweep.run_sweep_s", "s"),
    ("sweep.unattributed_s", "s"),
    ("sweep.cell_s_p50", "s"),
    ("sweep.cell_s_tail", "s"),
    ("sweep.boundary_s", "s"),
    ("sweep.basin_map_s", "s"),
    ("cli.write_s", "s"),
    ("trace.overhead_s", "s"),
]


def _outermost(spans: list[dict], name: str) -> list[dict]:
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(s)
    return out


def self_time(spans: list[dict], index: int) -> float:
    """Span duration minus the part of it its child spans cover."""
    span = spans[index]
    children = sorted((s["start"], s["end"]) for s in spans if s["parent"] == index)
    covered, reach = 0.0, span["start"]
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span["wall"] - covered


def _checking(spans: list[dict], start: float, end: float) -> float:
    """Time spent on the benchmark's own checks between start and end."""
    return sum(s["wall"] for s in spans if s["name"] == "trace.check" and start <= s["start"] < end)


def cell_times(spans: list[dict]) -> list[float]:
    out = []
    for i, s in enumerate(spans):
        if s["name"] != "sweep.run_sweep":
            continue
        starts = sorted(c["start"] for c in spans if c["parent"] == i and c["name"] == "sweep.cell_dynamics")
        out.extend(b - a - _checking(spans, a, b) for a, b in zip(starts, starts[1:] + [s["end"]]))
    return out


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it, and its
    name.  With fewer than 21 values that percentile falls below the
    median, so the median stands in for it."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return (statistics.median(ordered) if ordered else 0.0), "p50"
    return ordered[index], f"p{100.0 * (index + 1) / len(ordered):.0f}"


def round_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Layer totals of one traced round (cell times and the overhead are
    filled in by the caller, which pools them across rounds)."""
    m = {name: 0.0 for name, _ in PER_LAYER}

    def add(metric, name, key="wall"):
        m[metric] += sum(s.get(key, 0) for s in _outermost(spans, name))

    for spans in processes:
        add("cli.import_s", "cli.import")
        add("signals.build_s", "signals.build")
        add("network.construct_s", "network.construct")
        add("network.spectral_s", "network.spectral")
        add("stability.fixed_point_s", "stability.fixed_point")
        m["stability.fixed_point_calls"] += len(_outermost(spans, "stability.fixed_point"))
        cmax = _outermost(spans, "stability.cmax")
        m["stability.cmax_s"] += sum(s["wall"] for s in cmax)
        m["stability.cmax_calls"] += len(cmax)
        m["stability.cmax_max_s"] = max([m["stability.cmax_max_s"]] + [s["wall"] for s in cmax])
        add("stability.unforced_s", "stability.unforced")
        add("stability.unforced_row_steps", "stability.unforced", "row_steps")
        drives = _outermost(spans, "reservoir.drive")
        add("reservoir.drive_s", "reservoir.drive")
        add("reservoir.drive_cpu_s", "reservoir.drive", "cpu")
        add("reservoir.drive_steps", "reservoir.drive", "steps")
        m["reservoir.diverged_runs"] += sum(1 for s in drives if s["diverged"])
        m["reservoir.states_mb"] = max(
            [m["reservoir.states_mb"]] + [s["states_bytes"] / 2**20 for s in drives]
        )
        fits = _outermost(spans, "reservoir.fit_readout")
        add("reservoir.readout_s", "reservoir.build_omega")
        m["reservoir.readout_s"] += sum(s["wall"] for s in fits if not s["cold"])
        m["reservoir.readout_cold_s"] += sum(s["wall"] for s in fits if s["cold"])
        for i, s in enumerate(spans):
            if s["name"] == "sweep.run_sweep":
                m["sweep.run_sweep_s"] += s["wall"] - _checking(spans, s["start"], s["end"])
                m["sweep.unattributed_s"] += self_time(spans, i)
        add("sweep.boundary_s", "sweep.boundary")
        add("sweep.basin_map_s", "sweep.basin_map")
        add("cli.write_s", "cli.write")
    if m["reservoir.drive_steps"]:
        m["reservoir.drive_us_per_step"] = 1e6 * m["reservoir.drive_s"] / m["reservoir.drive_steps"]
    return m


def check_time(processes: list[list[dict]]) -> float:
    """Time the traced run spent on the benchmark's own checks."""
    return sum(_checking(spans, float("-inf"), float("inf")) for spans in processes)


def violations(processes: list[list[dict]]) -> list[str]:
    return [v for spans in processes for s in spans for v in s.get("violations", [])]
