"""Per-layer self times of one near-flat solve at three grid sizes.

    python3 bench/layers_by_size.py

For each of 64x32, 128x64 and 256x128 it solves from a rippled constant
b = 1 still flow (a = 0.004 h, L = 3) and runs diagnostics_report on the
result, under the same tracer as `run.py --trace 1`, and prints every
layer's self time in the fastest of REPEATS runs plus the tracemalloc
peak of one extra run. Run it with BLAS pinned to one thread
(OPENBLAS_NUM_THREADS=1) to match the benchmark. These are the reference
figures in README.md.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GRIDS = ((64, 32), (128, 64), (256, 128))
REPEATS = 3
LAYERS = ("stream", "special", "wavesolver.flat", "wavesolver.grid",
          "wavesolver.newton", "wavesolver.residual", "wavesolver.linsolve",
          "ode", "diagnostics")


def main() -> int:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install_scipy()
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    import stillwave as sw
    tracer.install_stillwave()

    def solve(nx, ny):
        dist = sw.ConstantVorticity(b=1.0)
        sol = sw.still_depth_family(dist)[0]
        state = sw.perturbed_state(sol, dist, 3.0, nx, ny, 0.004 * sol.depth)
        res = sw.newton_solve(state, dist)
        sw.diagnostics_report(res.state, sol, dist)

    columns = []
    for nx, ny in GRIDS:
        best = None
        for rep in range(REPEATS):
            tag = (nx, rep)
            tracer.item = tag
            t0 = time.perf_counter()
            solve(nx, ny)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best[0]:
                best = (elapsed, tracer.item_metrics(tag))
        tracer.item = None
        tracemalloc.start()
        solve(nx, ny)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        columns.append((f"{nx}x{ny}", best[0], best[1], peak))

    print(f"{'':24}" + "".join(f"{name:>10}" for name, *_ in columns))
    print(f"{'item (s)':24}" + "".join(f"{t:10.4f}" for _, t, _, _ in columns))
    for layer in LAYERS:
        print(f"{layer + ' (s)':24}" + "".join(
            f"{m[layer + '.self_s']:10.4f}" for _, _, m, _ in columns))
    print(f"{'tracemalloc peak (MB)':24}" + "".join(
        f"{peak:10.1f}" for *_, peak in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
