"""Span tracing around stillwave's layer boundaries, installed from outside.

The tracer wraps, at run time, the public callables where one layer of
the package hands work to another, plus the scipy entry points that do
the linear solves and the ODE integrations. Nothing in the package is
edited. Private names are never wrapped, and neither are vorticity
evaluations (too small and too many to time without distorting them),
so their cost stays in the self time of whichever span called them.

A call into a layer whose caller is already a span of that same layer
opens no new span: its time stays in the outer span, and a layer's
`calls` count entries into the layer. A span's self time is its duration
minus the durations of its direct child spans.

Spans are kept in memory, tagged with the item they belong to, and
written out once when the run ends. Only the thread that installed the
tracer records spans; the benchmark runs every workload on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, public callables) at that layer's boundary
STILLWAVE_LAYERS = {
    "cli": ("stillwave.cli", ("run",)),
    "stream": ("stillwave.stream", ("still_depth_family", "shear_solution",
                                    "critical_surface_speed",
                                    "least_still_depth")),
    "special": ("stillwave.special", ("singular_quadrature", "elliptic_F")),
    "hypotheses": ("stillwave.hypotheses", ("check_hypotheses",)),
    "wavesolver.sweep": ("stillwave.wavesolver", ("nonexistence_sweep",)),
    "wavesolver.flat": ("stillwave.wavesolver", ("flat_state",
                                                 "perturbed_state")),
    "wavesolver.newton": ("stillwave.wavesolver", ("newton_solve",
                                                   "bifurcation_branch")),
    "wavesolver.residual": ("stillwave.wavesolver", ("residual_norms",
                                                     "residual_fields")),
    "wavesolver.dispersion": ("stillwave.wavesolver",
                              ("dispersion_sigma", "dispersion_mode",
                               "find_bifurcation_points")),
    "diagnostics": ("stillwave.diagnostics", ("diagnostics_report",)),
}
LINSOLVE_ENTRY_POINTS = ("spsolve", "splu", "gmres")


class _TracedLU:
    """A SuperLU factor whose solve() is a traced callable; every other
    attribute is the factor's own."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Span:
    __slots__ = ("id", "parent", "item", "layer", "name", "start", "end",
                 "child", "self_s", "counts")

    def __init__(self, sid, parent, item, layer, name, start):
        self.id, self.parent, self.item = sid, parent, item
        self.layer, self.name, self.start = layer, name, start
        self.end = self.self_s = self.child = 0.0
        self.counts = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "item": self.item,
                "layer": self.layer, "name": self.name, "start": self.start,
                "end": self.end, "self_s": self.self_s, **self.counts}


def _linsolve_counts(args, kwargs, result) -> dict:
    A = args[0] if args else kwargs.get("A")
    return {"nnz": int(getattr(A, "nnz", 0)), "unknowns": int(A.shape[0])}


def _ode_counts(args, kwargs, result) -> dict:
    return {"nfev": int(result.nfev)}


def _newton_counts(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _cli_counts(args, kwargs, result) -> dict:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            return {"report_bytes": os.path.getsize(out)}
    return {"report_bytes": 0}


_COUNTERS = {"wavesolver.linsolve": _linsolve_counts, "ode": _ode_counts,
             "wavesolver.newton": _newton_counts, "cli": _cli_counts}


class Tracer:
    """Records spans; install_scipy() must run before stillwave is imported."""

    def __init__(self):
        self._thread = threading.get_ident()
        self._stack = []
        self.spans = []
        self.item = None
        self.grid_keys = []

    def wrap(self, layer: str, fn):
        counter = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (threading.get_ident() != self._thread
                    or (self._stack and self._stack[-1].layer == layer)):
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = _Span(len(self.spans), parent, self.item, layer,
                         fn.__qualname__, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                duration = span.end - span.start
                span.self_s = duration - span.child
                if self._stack:
                    self._stack[-1].child += duration
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install_scipy(self):
        """Patch the scipy entry points; modules that import them later
        with `from ... import` bind the traced versions. The factor that
        splu returns has its solve() traced as a linsolve span too."""
        if "stillwave" in sys.modules:
            raise RuntimeError(
                "install_scipy must run before stillwave is imported")
        import scipy.integrate
        import scipy.sparse.linalg
        for name in LINSOLVE_ENTRY_POINTS:
            setattr(scipy.sparse.linalg, name,
                    self.wrap("wavesolver.linsolve",
                              getattr(scipy.sparse.linalg, name)))
        splu = scipy.sparse.linalg.splu

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _TracedLU(lu, self.wrap("wavesolver.linsolve", lu.solve))

        scipy.sparse.linalg.splu = traced_splu
        scipy.integrate.solve_ivp = self.wrap("ode", scipy.integrate.solve_ivp)

    def install_stillwave(self):
        """Wrap each boundary callable under every name stillwave binds it
        to, and the StripGrid constructor on the class itself."""
        for modname, _ in STILLWAVE_LAYERS.values():
            importlib.import_module(modname)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stillwave" or name.startswith("stillwave.")]
        for layer, (modname, names) in STILLWAVE_LAYERS.items():
            for name in names:
                original = getattr(sys.modules[modname], name)
                wrapped = self.wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        from stillwave.wavesolver import StripGrid
        init = StripGrid.__init__

        @functools.wraps(init)
        def record_key(grid, *args, **kwargs):
            init(grid, *args, **kwargs)
            key = (grid.period_L, grid.nx, grid.ny, grid.topology)
            self.grid_keys.append((self.item, key))

        StripGrid.__init__ = self.wrap("wavesolver.grid", record_key)

    def item_metrics(self, index) -> dict:
        """Calls and self time of every layer in one item, the counters
        summed over the item (nnz and unknowns: its largest system)."""
        out = defaultdict(float)
        for layer in (*STILLWAVE_LAYERS, "wavesolver.grid",
                      "wavesolver.linsolve", "ode"):
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for span in self.spans:
            if span.item != index:
                continue
            out[f"{span.layer}.calls"] += 1
            out[f"{span.layer}.self_s"] += span.self_s
            for key, value in span.counts.items():
                name = f"{span.layer}.{key}"
                if key in ("nnz", "unknowns"):
                    out[name] = max(out[name], value)
                else:
                    out[name] += value
        for name in ("cli.report_bytes", "wavesolver.newton.iterations",
                     "wavesolver.linsolve.nnz", "wavesolver.linsolve.unknowns",
                     "ode.nfev"):
            out[name] = int(out[name])
        return dict(out)

    def grid_repeats(self) -> dict:
        """Shares of StripGrid builds whose (L, nx, ny, topology) was built
        before: earlier in the same item, or in an earlier item."""
        first_item, within, across = {}, 0, 0
        for item, key in self.grid_keys:
            if key not in first_item:
                first_item[key] = item
            elif first_item[key] == item:
                within += 1
            else:
                across += 1
        n = max(len(self.grid_keys), 1)
        return {"builds": len(self.grid_keys), "within_item": within / n,
                "earlier_item": across / n}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)
