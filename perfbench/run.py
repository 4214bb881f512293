"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` one worker process calls the
pipeline back to back for S seconds as a closed loop with one client,
fresh set-up-only processes are timed before and after it, and the run
reports the end-to-end metrics.  With ``--trace 1`` the worker
alternates traced and untraced calls and the run reports the per-layer
metrics instead.  Every call's outputs are checked.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with the environment and any spans, goes
to ``.bench_results/``.  ``--toy`` shrinks the grids for the self-check.

Workers run with BLAS and OpenMP pinned to one thread; the program's own
defaults are untouched.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# All processes of one run must have ended this many seconds after it
# starts, which keeps a run under three minutes.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} passed the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity():
    """Commit of the checkout when it is a git work tree, and a digest of src."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and \
            Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        commit = "unknown"
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(args):
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = work / "scenario.cfg"
    config_path.write_text(workload.config_text(args.seed, toy=args.toy),
                           encoding="utf-8")
    env = worker_env()

    def setup_probes(count):
        return [run_worker(("setup", config_path, workload.pipeline, out_dir, 0),
                           env, deadline)["setup_s"] for _ in range(count)]

    mode = "trace" if args.trace else "solve"
    probes = 0 if args.trace else SETUP_PROCESSES
    try:
        # Half the set-up probes run before the worker and half after, so
        # they sample the machine over the whole run, not one moment.
        setups = setup_probes(probes // 2)
        result = run_worker((mode, config_path, workload.pipeline, out_dir,
                             args.seconds), env, deadline)
        setups += setup_probes(probes - probes // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = setups
    return result


def summarize(args, result):
    """Metrics with their units, plus human-readable lines."""
    calls = result["calls"]
    plain = [c["seconds"] for c in calls if c["kind"] == "plain"]
    traced = [c["seconds"] for c in calls if c["kind"] == "traced"]
    failures = [c["failure"] for c in calls if c["failure"] is not None]
    if args.trace:
        layers = result["layers"]
        values = {name: statistics.median(call[name] for call in layers)
                  for name in layers[0]}
        values["trace.solve_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.solve_s"] \
            - statistics.median(plain)
        units = result["units"]
        lines = [f"medians over {len(traced)} traced calls; the untraced "
                 f"median is {statistics.median(plain):.4f} s over "
                 f"{len(plain)} calls"]
        lines += [f"{name} {values[name]:.6g} {units[name]}"
                  for name in sorted(values)]
    else:
        setups = result["setup_samples"]
        values = {"solve_s": statistics.median(plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END_UNITS
        q1, q3 = quartiles(plain)
        lines = [f"solve_s {values['solve_s']:.4f} s: median of {len(plain)} "
                 f"calls after one warm-up call (q1 {q1:.4f}, q3 {q3:.4f})",
                 f"setup_s {values['setup_s']:.4f} s: median of "
                 f"{len(setups)} fresh processes",
                 f"peak_rss_mb {values['peak_rss_mb']:.1f} MB"]
    lines.append(f"fail_ratio {len(failures) / len(calls):.4g}: "
                 f"{len(failures)} of {len(calls)} calls, warm-up included")
    lines += [f"failure: {reason}" for reason in failures]
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return lines, metrics, len(calls), len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny grids, for the harness self-check only")
    args = parser.parse_args(argv)
    if not (SRC / "cfcontrol" / "cli.py").is_file():
        print(f"error: no cfcontrol sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines, metrics, attempted, failed = summarize(args, result)
    env = {"seed": args.seed, **source_identity(), **result["env"]}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "env": env,
              "metrics": metrics, "calls": result["calls"],
              "setup_samples": result["setup_samples"],
              "spans": result["spans"]}
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" \
        + ("-toy" if args.toy else "") + ".json"
    (results_dir / name).write_text(json.dumps(record), encoding="utf-8")

    print(f"# {args.workload} env {json.dumps(env)}")
    for line in lines:
        print(f"# {args.workload} {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
