"""Deterministic SVG rendering of colorings as a honeycomb patch.

Cells are placed with the zig-zag column embedding (unit edge length):
x = 1.5*i +- 0.25 by handedness, y = j * sqrt(3)/2.  Each cell becomes
one hexagonal polygon filled by a palette color derived from the color
index, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import colorsys
import math
import sys

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
    ``InputError`` for a window coloring without cells, and for cells or
    colors past the range of a float, whose canvas could not be drawn.
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

    if not cells:
        raise InputError("the coloring has no cells to draw")
    # a cell's x follows from its column and handedness, its y from its row
    # and handedness: one cell of each places all of them
    columns = {(i, (i + j) % 2): (i, j) for i, j in cells}  # (i, parity)
    rows = {(j, (i + j) % 2): (i, j) for i, j in cells}
    # positions, the canvas (under 4 * SCALE times the farthest coordinate)
    # and hues are floats, so a coloring past their range is refused first
    far = max(abs(k) for k, _ in (*columns, *rows)) * 4 * int(SCALE)
    if max(far, max(cells.values())) > sys.float_info.max:
        raise InputError("the coloring's cells or colors lie past the range a drawing can hold")
    px = {key: cell_position(v)[0] for key, v in columns.items()}
    py = {key: cell_position(v)[1] for key, v in rows.items()}
    pad = 1.2
    x0, y0 = min(px.values()) - pad, min(py.values()) - pad
    width = (max(px.values()) - min(px.values()) + 2 * pad) * SCALE
    height = (max(py.values()) - min(py.values()) + 2 * pad) * SCALE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<!-- hexspan coloring, l={coloring.l}, {len(cells)} cells -->',
    ]
    # every coordinate is formatted once: each column's corner x strings
    # (and its label x) are filled into a polygon (and label) template,
    # whose "%s" fields left for y, fill and color each cell fills from
    # its row's corner y strings (and label y) and its color's fill
    polygon = ('<polygon points="' + " ".join(["%s,%s"] * 6)
               + '" fill="%s" stroke="#333333" stroke-width="1"/>')
    label = (f'<text x="%s" y="%s" font-size="{0.38 * SCALE:.1f}" text-anchor="middle" '
             'font-family="monospace">%s</text>')
    corners = [_corners(0.56 * SCALE, flip=hand == 1) for hand in (0, 1)]
    shape, text = {}, {}
    for (i, hand), x in px.items():
        cx = (x - x0) * SCALE
        shape[i, hand] = polygon % (
            *(s for dx, _ in corners[hand] for s in ("%.2f" % (cx + dx), "%s")), "%s")
        text[i, hand] = label % ("%.2f" % cx, "%s", "%s")
    lift = 0.12 * SCALE
    corner_y, label_y = {}, {}
    for (j, hand), y in py.items():
        cy = height - (y - y0) * SCALE  # svg y grows downward
        corner_y[j, hand] = tuple("%.2f" % (cy + dy) for _, dy in corners[hand])
        label_y[j, hand] = "%.2f" % (cy + lift)
    fill = {color: palette_color(color) for color in set(cells.values())}
    for (i, j), color in sorted(cells.items()):
        hand = (i + j) % 2
        lines.append(shape[i, hand] % (*corner_y[j, hand], fill[color]))
        if labels:
            lines.append(text[i, hand] % (label_y[j, hand], color))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
