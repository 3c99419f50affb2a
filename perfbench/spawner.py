"""Starts the benchmark's commands from a small process of its own.

    python3 perfbench/spawner.py < requests > replies

Linux keeps the high-water resident set of the process that starts a
command in the command's ru_maxrss across exec.  run.py holds numpy and the
parsed outputs (over 40 MB after a basin check), more than some commands
ever use, so commands it started itself would report its size.  This
process imports nothing heavy and starts every command instead.

Each request is one JSON line {"argv", "log", "seconds"}; the command runs
with this process's environment and working directory, its output goes to
"log", and it is killed if still running after "seconds".  Each reply is one
JSON line {"rc", "wall", "cpu", "rss_mb"}.  The process ends when its input
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, seconds: float) -> dict:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(seconds, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
