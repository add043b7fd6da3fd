"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py, never by hand. It imports stillwave from the
checkout's src/ (installing the tracer first when --trace 1), sets up
the workload and prints "ready". With --setup-only it exits there. Otherwise it runs item 0 once untimed as a warm-up, then
items 0, 1, 2, ... back to back until --seconds have passed, checks each
output, and prints one JSON line with its raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_stillwave():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import stillwave
    package_dir = os.path.dirname(os.path.abspath(stillwave.__file__))
    if os.path.dirname(package_dir) != src:
        raise RuntimeError(f"stillwave imported from {stillwave.__file__}, "
                           f"not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install_scipy()
    _import_stillwave()
    if tracer is not None:
        tracer.install_stillwave()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = _loop(wl, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        trace_dir = os.path.join(OUT_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json"))
        result["grid_repeats"] = tracer.grid_repeats()
    print(json.dumps(result), flush=True)
    return 0


def _loop(wl, args, tracer) -> dict:
    problems = []

    def run_item(index, tag):
        item = wl.item(index)
        if tracer is not None:
            tracer.item = tag
        t0 = time.perf_counter()
        out = wl.run(item)
        elapsed = time.perf_counter() - t0
        layers = tracer.item_metrics(tag) if tracer is not None else None
        problems.extend(f"item {index}: {msg}" for msg in wl.check(item, out))
        return out, elapsed, layers

    # tracemalloc slows Python-heavy layers several times over, so only
    # the untimed warm-up item runs under it
    if tracer is not None:
        tracemalloc.start()
    warm, _, _ = run_item(0, "warmup")
    peak_traced_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    times, layers, failed = [], [], 0
    start = last = time.perf_counter()
    index = 0
    while last - start < args.seconds:
        try:
            out, elapsed, item_layers = run_item(index, index)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            times.append(elapsed)
            if item_layers is not None:
                layers.append(item_layers)
            if index == 0 and wl.fingerprint(out) != wl.fingerprint(warm):
                problems.append("item 0 gave different output on its second run")
        index += 1
        last = time.perf_counter()

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not problems, "attempted": index, "failed": failed,
              "items_per_s": len(times) / (last - start),
              "item_p50_s": statistics.median(times) if times else None,
              "item_times_s": times,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if layers:
        result["layers"] = {name: statistics.median(d[name] for d in layers)
                            for name in layers[0]}
        result["layers"]["trace.peak_traced_mb"] = peak_traced_mb
    return result


if __name__ == "__main__":
    sys.exit(main())
