"""Benchmark of stillwave: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every process it starts is a fresh
interpreter that imports stillwave from the checkout's src/, with BLAS
and stillwave pinned to one thread. With --trace 0 it starts SETUP_RUNS
processes one after another and times each from its start until it has
imported stillwave and set up the workload (setup_s is their median); the
last one then runs the workload for --seconds. With --trace 1 a single
traced process runs the workload and the per-layer metrics are reported
instead. The last line of standard output is the result as JSON, with
the metrics named in BENCHMARK.json. The exit code is not 0 when
anything fails before a result can be given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_RUNS = 5
# a process still running this long after its --seconds is killed
GRACE_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "STILLWAVE_THREADS")


def _spawn(args, setup_only: bool):
    """Start a worker; return (setup seconds, its stdout lines after
    "ready"). Raises RuntimeError when the worker fails."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(args.seconds + GRACE_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with {code}")
    return setup_s, rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "stillwave", "__init__.py")):
        print("error: no stillwave sources under src/ in this checkout",
              file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            _spawn(args, setup_only=True)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, lines = _spawn(args, setup_only=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    if not raw["item_times_s"]:
        print("error: no item completed", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if args.trace:
        wanted, values = spec["per_layer"], raw["layers"]
        print(f"StripGrid builds repeating a key: {raw['grid_repeats']}",
              file=sys.stderr)
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups),
                  "items_per_s": raw["items_per_s"],
                  "item_p50_s": raw["item_p50_s"],
                  "peak_rss_mb": raw["peak_rss_mb"]}
    print(f"{len(raw['item_times_s'])} timed items (median "
          f"{raw['item_p50_s']:.4f} s), {raw['failed']} failed, setup runs "
          f"{', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
