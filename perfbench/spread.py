"""Run every workload on seeds 1-10 and report each metric's spread.

    python3 perfbench/spread.py

Each run is `perfbench/run.py --trace 0` in a fresh process with
BENCHMARK.json's run length.  Per workload it prints every run's metrics and, per metric, the
median, the quartiles and their distance as a share of the median, next to
a third of the metric's bound from BENCHMARK.json.  It also prints the share
of failed operations.  Exit code 1 when a run fails or reports incorrect
outputs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            results.append(result)
            values = "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  {values}", flush=True)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share {shares}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, q3 = median, median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {metric:32s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound/3 {bounds[metric] / 3:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
