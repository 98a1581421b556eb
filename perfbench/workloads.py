"""The four benchmark workloads and the checks on their outputs.

Each workload has a ``setup(seed)`` that builds its inputs and a pass
function that runs the workload once and returns one ``(op, ok)`` pair
per checked operation.  Every output is compared with the answers
pinned in ``pins.json``; an operation that raises counts as failed.

Functions are looked up through their module at call time
(``coloring.search_periodic``, not a name bound at import), so the span
wrappers of ``trace.py`` see every call the benchmark makes.

The seed never changes the work or the answers.  It only reorders the
window-exact instances and moves the oracle-sweep window by an even
translation, which is a graph automorphism of the hexagonal grid.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

import hexspan.cli as cli
from hexspan import coloring, grid, render, reuse, rings

PINS_FILE = Path(__file__).resolve().parent / "pins.json"

Outcome = tuple[str, bool]  # check name, passed

PERIODIC_L = 8
REUSE_PS = range(4, 13)
ORACLE_RADIUS = 30
# c01 sizing: window distances reach 60, so geodesics stay within
# |di| <= 30 and |dj| <= 60 of the source
ORACLE_BOX = (32, 62)


def load_pins() -> dict:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(reports) -> str:
    """sha256 of the battery's reports as sorted-key JSON."""
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_ops(ops) -> list[Outcome]:
    """Run ``(name, thunk)`` checks in order; a raising check fails."""
    out = []
    for name, check in ops:
        try:
            ok = bool(check())
        except Exception:  # a crash is a wrong answer, never a timing
            ok = False
        out.append((name, ok))
    return out


# -- periodic-search --------------------------------------------------------

def periodic_setup(seed: int, pins: dict) -> dict:
    return {"l": PERIODIC_L, "pins": pins["periodic-search"]}


def periodic_pass(inp: dict) -> list[Outcome]:
    """scripts/find_span_colorings.py for one l, with a file round trip."""
    l, pin = inp["l"], inp["pins"]
    state: dict = {}

    def search():
        res = coloring.search_periodic(l)
        c = state["coloring"] = res.coloring
        return {"colors": c.color_count, "det": c.det, "mode": res.mode,
                "basis": [list(t) for t in c.basis],
                "lattices_tried": res.lattices_tried} == pin["search"]

    def verify_periodic():
        return coloring.verify_lattice(state["coloring"]).valid

    def verify_materialised():
        window = coloring.materialize_window(state["coloring"], 3 * l)
        return coloring.verify_window(window).valid

    def round_trip():
        c = state["coloring"]
        text = coloring.write_coloring(c)
        back = coloring.read_coloring(text)
        return (back.basis == c.basis and back.assignment == c.assignment
                and coloring.write_coloring(back) == text)

    def draw():
        return render.render_svg(state["coloring"]).count("<polygon") == pin["svg_polygons"]

    return _run_ops([("search", search), ("verify_lattice", verify_periodic),
                     ("verify_window", verify_materialised),
                     ("round_trip", round_trip), ("render", draw)])


# -- reuse-battery ----------------------------------------------------------

def reuse_setup(seed: int, pins: dict) -> dict:
    return {"ps": list(REUSE_PS), "pins": pins["reuse-battery"]}


def reuse_pass(inp: dict) -> list[Outcome]:
    """run_checks(p) for every p, as check-observations does."""
    pin = inp["pins"]
    return _run_ops([(f"p={p}", lambda p=p: report_digest(reuse.run_checks(p)) == pin[str(p)])
                     for p in inp["ps"]])


# -- window-exact -----------------------------------------------------------

def window_setup(seed: int, pins: dict) -> dict:
    instances = list(pins["window-exact"])
    random.Random(seed).shuffle(instances)
    return {"instances": instances}


def window_pass(inp: dict) -> list[Outcome]:
    """Exact window decisions, the feasible ones verified, and their DIMACS export."""
    ops = []
    for inst in inp["instances"]:
        l, r, budget = inst["l"], inst["radius"], inst["budget"]
        tag = f"l={l} r={r} B={budget}"

        def decide(l=l, r=r, budget=budget, inst=inst):
            res = coloring.exact_window_span(l, r, budget)
            if (res.feasible, res.certificate) != (inst["feasible"], inst["certificate"]):
                return False
            if not res.feasible:
                return True
            c = res.coloring
            return (set(c.assignment) == set(rings.ball((0, 0), r))
                    and c.color_count <= budget and coloring.verify_window(c).valid)

        def dimacs(l=l, r=r, inst=inst):
            text = cli.export_dimacs(l, r)
            header = next(line for line in text.splitlines() if line.startswith("p edge "))
            _, _, n, m = header.split()
            return [int(n), int(m)] == [inst["vertices"], inst["edges"]]

        ops += [(f"decide {tag}", decide), (f"dimacs {tag}", dimacs)]
    return _run_ops(ops)


# -- oracle-sweep -----------------------------------------------------------

def oracle_setup(seed: int, pins: dict) -> dict:
    rng = random.Random(seed)
    ti = rng.randrange(-40, 41)
    tj = rng.randrange(-40, 41)
    tj += (ti + tj) % 2  # keep the translation even
    cells = [(i + ti, j + tj) for i, j in rings.ball((0, 0), ORACLE_RADIUS)]
    return {"cells": cells, "arr": np.asarray(cells, dtype=np.int64),
            "pins": pins["oracle-sweep"]}


def oracle_pass(inp: dict) -> list[Outcome]:
    """c01: BFS field from every window cell against the closed form."""
    window, arr, pin = inp["cells"], inp["arr"], inp["pins"]
    di_max, dj_max = ORACLE_BOX
    state: dict = {}

    def closed_form():
        state["closed"] = grid.distance_closed_array(
            arr[:, 0][:, None], arr[:, 1][:, None], arr[:, 0][None, :], arr[:, 1][None, :])
        return len(window) == pin["cells"]

    def sweep(s, src):
        stop = np.zeros((2 * di_max + 1, 2 * dj_max + 1), dtype=bool)
        xi = arr[:, 0] - src[0] + di_max
        yj = arr[:, 1] - src[1] + dj_max
        stop[xi, yj] = True
        field = grid.distance_field(src, di_max, dj_max, stop_mask=stop)
        return int((field[xi, yj] != state["closed"][s]).sum()) == pin["mismatches"]

    return _run_ops([("closed form", closed_form)]
                    + [(f"source {s}", lambda s=s, src=src: sweep(s, src))
                       for s, src in enumerate(window)])


WORKLOADS = {
    "periodic-search": (periodic_setup, periodic_pass),
    "reuse-battery": (reuse_setup, reuse_pass),
    "window-exact": (window_setup, window_pass),
    "oracle-sweep": (oracle_setup, oracle_pass),
}

# Per-layer metrics that must be non-zero on each workload's traced run;
# perfbench/test_perfbench.py fails when a rename or move in the package
# silently drops a layer.
EXPECTED_NONZERO = {
    "periodic-search": [
        "solver.greedy_clique.calls", "solver.solve_coloring.calls",
        "coloring.search_periodic.calls", "coloring.separation_filter.calls",
        "coloring.quotient_conflicts.calls", "coloring.quotient_conflicts.dist_evals",
        "coloring.lattices_tried", "coloring.clique_rejections", "coloring.success_ratio",
        "coloring.verify_lattice.calls", "coloring.verify_window.calls",
        "coloring.verify_window.checked", "coloring.io.calls",
        "render.render_svg.calls", "render.render_svg.bytes", "rings.build_ring.calls",
    ],
    "reuse-battery": [
        "grid.distance_bfs.calls", "grid.pairwise_distances.calls",
        "reuse.max_spread.calls", "reuse.max_clique.calls",
        "reuse.compatibility_masks.calls", "rings.reuse_set.calls",
        "rings.build_ring.calls", "rings.shell_members.calls",
    ],
    "window-exact": [
        "solver.greedy_clique.calls", "solver.solve_coloring.calls",
        "coloring.window_conflicts.calls", "coloring.verify_window.calls",
        "coloring.verify_window.checked", "grid.pairwise_distances.calls",
        "cli.export_dimacs.calls", "cli.export_dimacs.edges", "rings.build_ring.calls",
    ],
    "oracle-sweep": ["grid.distance_field.calls"],
}
