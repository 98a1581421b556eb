"""Deterministic SVG rendering of colorings as a honeycomb patch.

Cells are placed with the zig-zag column embedding (unit edge length):
x = 1.5*i +- 0.25 by handedness, y = j * sqrt(3)/2.  Each cell becomes
one hexagonal polygon filled by a palette color derived from the color
index, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import colorsys
import math
from operator import add

from .coloring import LatticeColoring, WindowColoring
from .errors import InputError, ResourceGuard
from .grid import Vertex, parity

SQ3 = math.sqrt(3.0)
SCALE = 24.0  # svg units per unit edge length
# the most cells a tiled lattice drawing may hold: on a 2-vCPU Xeon,
# `render --tile 38` of a 66-cell domain (95,304 cells, a 26 MB file)
# takes about 2 s and 150 MB, and tile 60 took 3.3 s and 330 MB
MAX_TILED_CELLS = 100_000


def cell_position(v: Vertex) -> tuple[float, float]:
    x = 1.5 * v[0] + (0.25 if parity(v) == 0 else -0.25)
    y = v[1] * (SQ3 / 2.0)
    return x, y


def palette_color(index: int) -> str:
    """Stable, well-spread color for a 1-based color index."""
    hue = (index * 0.61803398875) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.92)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _corners(radius: float, flip: bool) -> list[tuple[float, float]]:
    """The six corner offsets of a hexagon around its centre."""
    start = 0.0 if not flip else math.pi / 6.0
    angles = [start + t * math.pi / 3.0 for t in range(6)]
    return [(radius * math.cos(ang), radius * math.sin(ang)) for ang in angles]


def render_svg(coloring: LatticeColoring | WindowColoring, tile: int = 3,
               labels: bool = True) -> str:
    """SVG text for a coloring.

    A window coloring is drawn as-is.  A lattice coloring is drawn as
    its fundamental domain tiled ``tile`` x ``tile`` times, so the
    periodic structure is visible; ``ResourceGuard`` if that would draw
    more than ``MAX_TILED_CELLS`` cells, checked before any is placed.
    """
    if tile < 1:
        raise InputError(f"tile must be >= 1, got {tile}")
    if isinstance(coloring, LatticeColoring):
        if tile * tile * coloring.det > MAX_TILED_CELLS:
            raise ResourceGuard(f"tile {tile} of a {coloring.det}-cell domain would draw "
                                f"{tile * tile * coloring.det} cells, above the limit of "
                                f"{MAX_TILED_CELLS}")
        t1, t2 = coloring.basis
        cells: dict[Vertex, int] = {}
        domain = coloring.geometry.cells()
        for s in range(tile):
            for t in range(tile):
                for cell in domain:
                    shifted = (cell[0] + s * t1[0] + t * t2[0],
                               cell[1] + s * t1[1] + t * t2[1])
                    cells[shifted] = coloring.assignment[cell]
    else:
        cells = dict(coloring.assignment)

    placed = {v: cell_position(v) for v in cells}
    xs = [p[0] for p in placed.values()]
    ys = [p[1] for p in placed.values()]
    pad = 1.2
    x0, y0 = min(xs) - pad, min(ys) - pad
    width = (max(xs) - min(xs) + 2 * pad) * SCALE
    height = (max(ys) - min(ys) + 2 * pad) * SCALE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<!-- hexspan coloring, l={coloring.l}, {len(cells)} cells -->',
    ]
    # one %-template per polygon and per label, the corner offsets of each
    # handedness flattened to (dx0, dy0, ..., dx5, dy5), and the fill of
    # each color, all made once
    polygon = ('<polygon points="' + " ".join(["%.2f,%.2f"] * 6)
               + '" fill="%s" stroke="#333333" stroke-width="1"/>')
    label = (f'<text x="%.2f" y="%.2f" font-size="{0.38 * SCALE:.1f}" text-anchor="middle" '
             'font-family="monospace">%s</text>')
    offsets = [[x for corner in _corners(0.56 * SCALE, flip=hand == 1) for x in corner]
               for hand in (0, 1)]
    fill = {color: palette_color(color) for color in set(cells.values())}
    lift = 0.12 * SCALE
    for v in sorted(cells):
        px, py = placed[v]
        cx = (px - x0) * SCALE
        cy = height - (py - y0) * SCALE  # svg y grows downward
        color = cells[v]
        lines.append(polygon % (*map(add, (cx, cy) * 6, offsets[parity(v)]), fill[color]))
        if labels:
            lines.append(label % (cx, cy + lift, color))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
