"""Self-check of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --toy`` untraced once and traced
twice on one seed, and checks that:

* every call passes its output check;
* the untraced run emits exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the traced run exactly its ``per_layer`` metrics,
  each with the unit listed there and a finite value;
* every per-layer metric that is not a time repeats exactly between the
  two traced runs of the seed.

Exits nonzero and lists the problems when any check fails.  It measures
nothing and is not part of the test suite.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                          cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(where, result, expected):
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} failed calls")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append(f"{where}: metrics {sorted(got.items())} differ from "
                        f"BENCHMARK.json {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} has value {m['value']!r}")
    return problems


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    problems = []
    for name in WORKLOADS:
        problems += compare(f"{name} trace 0", run(name, 0), spec["end_to_end"])
        first, second = run(name, 1), run(name, 1)
        problems += compare(f"{name} trace 1", first, spec["per_layer"])
        for key in counts:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{name}: {key} is {a} then {b} on seed {SEED}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
