"""Benchmark worker: set up a scenario, then call its pipeline in a loop.

    python3 perfbench/worker.py MODE CONFIG PIPELINE OUT_DIR SECONDS

``setup`` times the set-up only: importing ``cfcontrol.cli``, parsing the
config and building the grid and family, in this fresh process.
``solve`` adds one warm-up call and then calls ``cli.run_scenario`` back
to back until SECONDS have passed.  ``trace`` does the same but
alternates traced and untraced calls, the traced one first.  Every call's
artifacts are removed before it and checked after it, outside the timed
region.  The last line of stdout is one JSON object.

Only the standard library is imported before the set-up is timed, so
the numpy and scipy imports count towards it.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(config_path):
    start = time.perf_counter()
    from cfcontrol import cli
    from cfcontrol.config import parse_config
    config = parse_config(config_path)
    config.grid()
    config.family()
    return time.perf_counter() - start, cli, config


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: value for var, value in os.environ.items()
                    if var.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def clear(out_dir):
    for entry in os.scandir(out_dir):
        os.remove(entry.path)


def call(cli, config, pipeline, out_dir, check):
    """One timed pipeline call; returns (seconds, failure reason or None)."""
    clear(out_dir)
    start = time.perf_counter()
    try:
        status = cli.run_scenario(config, pipeline, out_dir)
    except Exception as exc:  # a failing call is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, check(status, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return elapsed, f"unreadable output: {exc}"


def main(argv):
    mode, config_path, pipeline, out_dir, seconds = argv[1:6]
    seconds = float(seconds)
    setup_s, cli, config = setup(config_path)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"cfcontrol imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import cfcontrol.config as config_module
    from checks import OutputCheck
    from tracer import UNITS, Tracer
    check = OutputCheck(pipeline, config)
    tracer = Tracer()
    calls = []
    layers = []

    warm_s, failure = call(cli, config, pipeline, out_dir, check)
    calls.append({"kind": "warmup", "seconds": warm_s, "failure": failure})
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (mode == "trace" and len(calls) < 3)):
        traced = mode == "trace" and len(calls) % 2 == 1
        if traced:
            tracer.begin(len(calls))
            with tracer.installed():
                config_module.parse_config(config_path)
                elapsed, failure = call(cli, config, pipeline, out_dir, check)
            metrics = tracer.layer_metrics()
            metrics["cli.bytes_written"] = sum(
                entry.stat().st_size for entry in os.scandir(out_dir))
            layers.append(metrics)
        else:
            elapsed, failure = call(cli, config, pipeline, out_dir, check)
        calls.append({"kind": "traced" if traced else "plain",
                      "seconds": elapsed, "failure": failure})

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "calls": calls,
        "layers": layers,
        "spans": tracer.spans,
        "units": UNITS,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
