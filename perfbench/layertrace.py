"""Outside-in span tracing of the hexspan layers.

The package is not edited: each traced function is replaced, for the
length of a traced pass, by a wrapper installed under every name a
caller can resolve.  ``from .solver import greedy_clique`` in
``coloring.py`` binds a second name, so wrapping ``hexspan.solver``
alone would miss the periodic search; ``install`` therefore scans every
loaded ``hexspan`` module for attributes that are the original function
and rebinds all of them.

Spans are kept in memory as flat records ``[name, start, end, parent]``.
A layer's self time is its span's duration minus the durations of its
direct children.  Per-cell kernels (``distance_closed``, ``translate``,
``LatticeGeometry.canonical``) are never wrapped: they run millions of
times and the wrapper would dominate what it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer name -> (defining module, function name) for every wrapped function.
# coloring.io aggregates both directions of the coloring file format.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "solver.greedy_clique": [("hexspan.solver", "greedy_clique")],
    "solver.solve_coloring": [("hexspan.solver", "solve_coloring")],
    "coloring.search_periodic": [("hexspan.coloring", "search_periodic")],
    "coloring.separation_filter": [("hexspan.coloring", "_separation_ok")],
    "coloring.quotient_conflicts": [("hexspan.coloring", "quotient_conflicts")],
    "coloring.verify_lattice": [("hexspan.coloring", "verify_lattice")],
    "coloring.verify_window": [("hexspan.coloring", "verify_window")],
    "coloring.window_conflicts": [("hexspan.coloring", "window_conflicts")],
    "coloring.io": [("hexspan.coloring", "write_coloring"),
                    ("hexspan.coloring", "read_coloring")],
    "render.render_svg": [("hexspan.render", "render_svg")],
    "grid.distance_bfs": [("hexspan.grid", "distance_bfs")],
    "grid.distance_field": [("hexspan.grid", "distance_field")],
    "grid.pairwise_distances": [("hexspan.grid", "pairwise_distances")],
    "reuse.max_spread": [("hexspan.reuse", "max_spread")],
    "reuse.max_clique": [("hexspan.reuse", "_max_clique_bits")],
    "reuse.compatibility_masks": [("hexspan.reuse", "compatibility_masks")],
    "rings.reuse_set": [("hexspan.rings", "reuse_set")],
    "rings.build_ring": [("hexspan.rings", "build_ring")],
    "rings.shell_members": [("hexspan.rings", "_shell_members")],
    "cli.export_dimacs": [("hexspan.cli", "export_dimacs")],
}

# Work counters recorded beside the spans.  dist_evals is computed from
# the arguments of quotient_conflicts (n(n-1)/2 pairs times |lattice box|),
# not counted inside it.
COUNTERS = (
    "coloring.quotient_conflicts.dist_evals",
    "coloring.lattices_tried",
    "coloring.clique_rejections",
    "coloring.verify_window.checked",
    "render.render_svg.bytes",
    "cli.export_dimacs.edges",
)

# Every per-layer metric a traced run reports, with its unit and direction.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{layer}.{kind}", unit, "lower")
     for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(name, "count", "lower") for name in COUNTERS]
    + [("coloring.success_ratio", "ratio", "higher"),
       ("trace_overhead_s", "s", "lower")]
)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.clique_sizes: dict[int, int] = {}  # greedy_clique span -> size
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function under each name that resolves to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hexspan" or key.startswith("hexspan."))]
        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, original, _AFTER.get(attr))
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """calls and self time per layer, plus the work counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - inner
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        out["coloring.success_ratio"] = (
            self.counters.get("coloring.successes", 0) / out["coloring.lattices_tried"]
            if out["coloring.lattices_tried"] else 0.0)
        return out


def _after_search_periodic(tracer, idx, args, kwargs, result) -> None:
    c = tracer.counters
    c["coloring.lattices_tried"] += result.lattices_tried
    c["coloring.successes"] += result.mode == "multi-domain"
    # every span opened after this one started is one of its descendants
    c["coloring.clique_rejections"] += sum(
        1 for span, size in tracer.clique_sizes.items()
        if span > idx and size > result.target)


def _after_greedy_clique(tracer, idx, args, kwargs, result) -> None:
    tracer.clique_sizes[idx] = len(result)


def _after_quotient_conflicts(tracer, idx, args, kwargs, result) -> None:
    geo, l = args
    lam = geo.points_in_box(geo.a + l + 2, geo.d + geo.b + l + 2)
    n = geo.det
    tracer.counters["coloring.quotient_conflicts.dist_evals"] += n * (n - 1) // 2 * len(lam)


def _after_verify_window(tracer, idx, args, kwargs, result) -> None:
    tracer.counters["coloring.verify_window.checked"] += result.checked


def _after_render_svg(tracer, idx, args, kwargs, result) -> None:
    tracer.counters["render.render_svg.bytes"] += len(result.encode("utf-8"))


def _after_export_dimacs(tracer, idx, args, kwargs, result) -> None:
    header = next(line for line in result.splitlines() if line.startswith("p edge "))
    tracer.counters["cli.export_dimacs.edges"] += int(header.split()[3])


# hooks keyed by the wrapped function's name; they run after the span closes
_AFTER = {
    "search_periodic": _after_search_periodic,
    "greedy_clique": _after_greedy_clique,
    "quotient_conflicts": _after_quotient_conflicts,
    "verify_window": _after_verify_window,
    "render_svg": _after_render_svg,
    "export_dimacs": _after_export_dimacs,
}
