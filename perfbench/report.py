"""Print the end-to-end metrics of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` untraced on each workload in turn and prints ``solve_s``,
``setup_s``, ``peak_rss_mb`` and ``fail_ratio`` with their units and the
number of pipeline calls behind them, the warm-up call included.  The
default seed is the documented default benchmark seed, and the default
run length is ``run_seconds`` of ``BENCHMARK.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.seconds:g} s per workload")
    print(f"{'workload':<16} {'solve_s':>9} {'setup_s':>9} "
          f"{'peak_rss_mb':>12} {'fail_ratio':>11} {'calls':>6}")
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"{name:<16} run failed:\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        ratio = result["failed"] / result["attempted"]
        status |= ratio > 0
        print(f"{name:<16} {m['solve_s']:>7.3f} s {m['setup_s']:>7.3f} s "
              f"{m['peak_rss_mb']:>9.1f} MB {ratio:>11.3g} "
              f"{result['attempted']:>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())
