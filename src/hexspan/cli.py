"""Command-line surface.

Exit codes follow one contract everywhere: 0 success or pass, 1 a
verification failed or a bound was not attained, 2 usage or parse
error (``InputError``, ``ColoringFormatError``, a file that cannot be
read or written), 3 resource-guard refusal (an exact window or a
multi-domain search stopped at the node limit is undecided, never
refuted), 4 an internal check failed or any other exception (a bug in
the package, such as a spread witness the BFS recheck rejects).  Every
subcommand takes --json for machine-readable output with a
schema-version field.  Commands parse, call the library and print: every
limit is the library's but ``distance``'s, whose message names the distance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .coloring import (
    MAX_DET,
    ColoringFormatError,
    LatticeColoring,
    exact_window_span,
    export_dimacs,
    read_coloring_file,
    search_lattice,
    search_periodic,
    verify_lattice,
    verify_window,
    write_coloring_file,
)
from .errors import InputError, ResourceGuard
from .grid import (_BLOCK_ENTRIES, _refuse_past_bfs_limit, distance_bfs, distance_closed,
                   pairwise_distances)
from .render import render_svg
from .reuse import _refuse_large_p, run_checks
from .rings import build_clique, build_ring, build_shell
from .spans import span_even

SCHEMA = "hexspan/1"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_distance(args) -> int:
    u = (args.i1, args.j1)
    v = (args.i2, args.j2)
    closed = distance_closed(u, v)
    _refuse_past_bfs_limit("distance", closed)
    oracle = distance_bfs(u, v)
    _emit(args, {"command": "distance", "u": list(u), "v": list(v),
                 "distance": closed, "bfs": oracle},
          f"d({u}, {v}) = {closed} (bfs {oracle})")
    return 0 if closed == oracle else 1


def _cmd_ring(args) -> int:
    ring = build_ring((args.center[0], args.center[1]), args.k)
    _emit(args, {
        "command": "ring", "k": args.k, "center": list(ring.center),
        "size": len(ring.members),
        "members": [list(v) for v in ring.members],
        "arcs": [[list(v) for v in arc] for arc in ring.arcs],
        "corners": [list(v) for v in ring.corners],
    }, f"ring k={args.k} around {ring.center}: {len(ring.members)} cells, "
       f"corners {list(ring.corners)}")
    return 0


def _widest(cells, center) -> int:
    """Largest distance between two of ``cells``, in blocks of rows of at
    most ``_BLOCK_ENTRIES`` entries (or one row): the whole matrix grows as
    len(cells)**2.  The cells are measured moved by the even translation,
    an automorphism, that takes ``center`` to (0, 0) or (0, 1), so that
    int64 holds them whatever the centre."""
    ci, cj = center
    cj -= (ci + cj) % 2
    cells = np.array([(i - ci, j - cj) for i, j in cells], dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // len(cells))
    return max(int(pairwise_distances(cells[first:first + step], cells).max())
               for first in range(0, len(cells), step))


def _cmd_clique(args) -> int:
    clique = build_clique((args.center[0], args.center[1]), args.p)
    # no pair is farther apart than 2p (both lie within p of the centre),
    # and ring p holds centre +- (0, p), 2p apart down one column: the
    # ring's widest pair is the clique's
    widest = _widest(build_ring(clique.center, args.p).members, clique.center)
    _emit(args, {
        "command": "clique", "p": args.p, "center": list(clique.center),
        "size": len(clique.members), "max_pairwise_distance": widest,
        "members": [list(v) for v in clique.members],
    }, f"distance clique p={args.p}: {len(clique.members)} cells, "
       f"max pairwise distance {widest}")
    return 0


def _cmd_shell(args) -> int:
    shell = build_shell((0, 0), args.k, args.h)
    members = sorted(shell.members)
    _emit(args, {
        "command": "shell", "k": args.k, "h": args.h,
        "size": len(members), "members": [list(v) for v in members],
    }, f"shell k={args.k} h={args.h}: {len(members)} cells: {members}")
    return 0


def _cmd_span(args) -> int:
    cert = span_even(args.l)
    _emit(args, {"command": "span", **cert.to_dict()},
          f"span for l={args.l}: {cert.span} "
          f"(clique {cert.clique_size} + extra {cert.extra}, "
          f"formula value {cert.formula_value}, case {cert.parity_case})")
    return 0


def _cmd_check_observations(args) -> int:
    ps = range(args.p_min, args.p_max + 1)
    if not ps:
        raise InputError(f"empty p range: --p-min {args.p_min} > --p-max {args.p_max}")
    _refuse_large_p(ps[-1])  # before any p of the range is checked
    reports = []
    for p in ps:
        for report in run_checks(p):
            reports.append(report)
            if not args.json:
                extra = f" ({len(report.counterexamples)} counterexamples)" if not report.ok else ""
                print(f"p={p} {report.check}: {report.verdict}{extra}")
    all_ok = all(report.ok for report in reports)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": "check-observations",
                          "p": list(ps), "verdict": "pass" if all_ok else "fail",
                          "reports": [r.to_dict() for r in reports]}, sort_keys=True))
    else:
        print(f"overall: {'pass' if all_ok else 'fail'}")
    return 0 if all_ok else 1


def _cmd_search_lattice(args) -> int:
    periodic = args.multi_domain or args.colors is not None
    payload = {"command": "search-lattice", "l": args.l}
    if periodic:
        result = search_periodic(args.l, colors=args.colors, max_det=args.max_det)
        coloring = result.coloring
        # the search decides every lattice or raises; hexspan/1 keeps the key
        payload.update({"target": result.target, "mode": result.mode,
                        "lattices_tried": result.lattices_tried, "undecided": 0})
        text = (f"no periodic coloring with {result.target} colors found "
                f"(examined {result.lattices_tried} lattices)")
    else:
        max_det = MAX_DET if args.max_det is None else args.max_det
        coloring = search_lattice(args.l, max_det)
        payload.update({"max_index": max_det, "mode": "single-coset"})
        text = f"no single-coset lattice with det <= {max_det}"
    if coloring is None:
        _emit(args, {**payload, "found": False}, text)
        return 1
    # both searches return only colorings that verify_lattice accepted
    payload.update({"found": True, "colors": coloring.color_count,
                    "basis": [list(t) for t in coloring.basis], "verified": True})
    if periodic:
        payload["det"] = coloring.det
        text = (f"{coloring.color_count}-color periodic coloring, mode {result.mode}, "
                f"period basis {coloring.basis}, domain {coloring.det} cells")
    else:
        text = f"{coloring.color_count}-color single-coset coloring, basis {coloring.basis}"
    if args.out:
        write_coloring_file(coloring, args.out)
        text += f"; written to {args.out}"
    _emit(args, payload, text)
    return 0


def _cmd_verify_coloring(args) -> int:
    coloring = read_coloring_file(args.file)
    if isinstance(coloring, LatticeColoring):
        result = verify_lattice(coloring)
        kind = f"lattice ({coloring.mode})"
    else:
        result = verify_window(coloring)
        kind = "window"
    _emit(args, {"command": "verify-coloring", "file": str(args.file),
                 "kind": kind, "l": coloring.l, "colors": coloring.color_count,
                 **result.to_dict()},
          f"{kind} coloring, l={coloring.l}, {coloring.color_count} colors: "
          + ("valid" if result.valid else
             f"INVALID, {len(result.violations)} violations, first: "
             f"{result.violations[0].to_dict()}"))
    return 0 if result.valid else 1


def _cmd_exact_window(args) -> int:
    result = exact_window_span(args.l, args.radius, args.budget)
    _emit(args, {"command": "exact-window", **result.to_dict()},
          f"l={args.l} radius={args.radius} budget={args.budget}: "
          f"{'feasible' if result.feasible else 'infeasible'} ({result.certificate})")
    if result.feasible and args.out:
        write_coloring_file(result.coloring, args.out)
    elif args.out:
        print("no coloring written: infeasible", file=sys.stderr)
    return 0


def _cmd_export_dimacs(args) -> int:
    text = export_dimacs(args.l, args.radius)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    header = next(line for line in text.splitlines() if line.startswith("p "))
    _, _, n, m = header.split()
    _emit(args, {"command": "export-dimacs", "l": args.l, "radius": args.radius,
                 "vertices": int(n), "edges": int(m), "out": str(args.out)},
          f"wrote {args.out}: {n} vertices, {m} edges")
    return 0


def _cmd_render(args) -> int:
    coloring = read_coloring_file(args.file)
    svg = render_svg(coloring, tile=args.tile, labels=not args.no_labels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    _emit(args, {"command": "render", "file": str(args.file), "out": str(args.out),
                 "cells": svg.count("<polygon")},
          f"wrote {args.out} ({svg.count('<polygon')} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexspan",
        description="Distance-coloring toolkit for the infinite hexagonal grid.",
    )
    parser.add_argument("--version", action="version", version=f"hexspan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("distance", _cmd_distance, "graph distance between two cells")
    p.add_argument("i1", type=int)
    p.add_argument("j1", type=int)
    p.add_argument("i2", type=int)
    p.add_argument("j2", type=int)

    p = add("ring", _cmd_ring, "cells at distance exactly k, arcs and corners")
    p.add_argument("k", type=int)
    p.add_argument("--center", type=int, nargs=2, default=(0, 0), metavar=("I", "J"))

    p = add("clique", _cmd_clique, "radius-p ball (the distance-2p clique)")
    p.add_argument("p", type=int)
    p.add_argument("--center", type=int, nargs=2, default=(0, 0), metavar=("I", "J"))

    p = add("shell", _cmd_shell, "ring cells at distance 2h from a corner")
    p.add_argument("k", type=int)
    p.add_argument("h", type=int)

    p = add("span", _cmd_span, "closed-form span certificate for even l >= 8")
    p.add_argument("l", type=int)

    p = add("check-observations", _cmd_check_observations,
            "verify all reuse bounds and counting certificates")
    p.add_argument("--p-min", type=int, default=4, help="first p of the range (default: 4)")
    p.add_argument("--p-max", type=int, default=12, help="last p of the range (default: 12)")

    p = add("search-lattice", _cmd_search_lattice, "search periodic colorings")
    p.add_argument("l", type=int)
    p.add_argument("--multi-domain", action="store_true",
                   help="periodic search with per-cell color assignments")
    p.add_argument("--colors", type=int, default=None,
                   help="at most this many colors; selects --multi-domain "
                        "(default: span formula)")
    p.add_argument("--max-det", type=int, default=None,
                   help="largest period-lattice determinant to try (default: "
                        f"{MAX_DET} single-coset, 2 * colors + 24 multi-domain)")
    p.add_argument("--out", type=str, default=None, help="write the coloring file here")

    p = add("verify-coloring", _cmd_verify_coloring, "verify a coloring file")
    p.add_argument("file", type=str)

    p = add("exact-window", _cmd_exact_window,
            "exact budgeted coloring of a finite window")
    p.add_argument("l", type=int)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", type=str, default=None)

    p = add("export-dimacs", _cmd_export_dimacs, "window power graph in DIMACS format")
    p.add_argument("l", type=int)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", type=str, required=True)

    p = add("render", _cmd_render, "render a coloring file to SVG")
    p.add_argument("file", type=str)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--tile", type=int, default=3,
                   help="tile a lattice fundamental domain this many times")
    p.add_argument("--no-labels", action="store_true")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ResourceGuard as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ColoringFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # any other exception is a bug in the package: keep its traceback
        # (imported here, so that a normal run does not load the module)
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


def main() -> None:
    sys.exit(run())
