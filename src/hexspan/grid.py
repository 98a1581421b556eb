"""Coordinate model of the infinite hexagonal grid.

Cells are integer pairs (i, j).  A cell is right-handed when (i + j) is
even: its single horizontal edge points east, to (i+1, j).  Left-handed
cells (odd coordinate sum) point west instead.  Vertical edges
(i, j)-(i, j+1) always exist, so every cell has exactly three neighbours
and the graph is bipartite across the two handedness classes.

Two distance implementations are provided on purpose.  ``distance_closed``
is the O(1) closed form (with ``distance_closed_array`` and
``pairwise_distances`` as its numpy forms).  Breadth-first search is
the slow, obviously-correct oracle it is checked against, by two
routes:

* sparse set BFS: ``bfs_distances`` sweeps outward from one source
  until a given set of targets is reached; ``distance_bfs`` is its
  single-target form;
* dense numpy field: ``distance_field`` sweeps a whole box at once.
  ``distance_within`` reads its distances from two cached fields, one
  swept from (0, 0) and one from (1, 0).  Even translations are
  automorphisms, so the field of u's handedness, read at offset v - u,
  gives d(u, v).  It relies on ``distance_field``'s sizing rule: every
  cell within distance R of the source, together with a geodesic to it,
  lies in the box |di| <= (R+1)//2, |dj| <= R, so inside that box the
  field is exact up to R and reads more than R (or -1) beyond it.

The closed form's westward correction term was calibrated against the
BFS oracle, and their equivalence is enforced by the test suite,
exhaustively up to radius 30.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

Vertex = tuple[int, int]


def parity(v: Vertex) -> int:
    """0 for right-handed cells (east edge), 1 for left-handed (west edge)."""
    return (v[0] + v[1]) % 2


def is_right(v: Vertex) -> bool:
    return parity(v) == 0


def neighbors(v: Vertex) -> set[Vertex]:
    """The three adjacent cells."""
    i, j = v
    horizontal = (i + 1, j) if (i + j) % 2 == 0 else (i - 1, j)
    return {horizontal, (i, j + 1), (i, j - 1)}


def distance_closed(u: Vertex, v: Vertex) -> int:
    """Exact graph distance, closed form.

    When the column offset does not exceed the row offset every step can
    make progress, so the distance is the L1 norm.  Otherwise vertical
    detours are forced: an eastward step must leave a right-handed cell
    and a westward step a left-handed one, which pins how many detour
    steps are needed.  Writing w for the western and e for the eastern
    endpoint the total comes to 2*|di| + parity(w) - parity(e).
    """
    di = abs(u[0] - v[0])
    dj = abs(u[1] - v[1])
    if di <= dj:
        return di + dj
    west, east = (u, v) if u[0] < v[0] else (v, u)
    return 2 * di + parity(west) - parity(east)


def distance_closed_array(i1, j1, i2, j2):
    """``distance_closed`` over numpy arrays, broadcasting."""
    i1, j1, i2, j2 = np.broadcast_arrays(i1, j1, i2, j2)
    di = np.abs(i1 - i2)
    dj = np.abs(j1 - j2)
    t1 = (i1 + j1) & 1
    t2 = (i2 + j2) & 1
    first_is_west = i1 < i2
    west_t = np.where(first_is_west, t1, t2)
    east_t = np.where(first_is_west, t2, t1)
    return np.where(di <= dj, di + dj, 2 * di + west_t - east_t)


def pairwise_distances(cells: list[Vertex]) -> np.ndarray:
    """Symmetric matrix of graph distances between the given cells."""
    arr = np.asarray(cells, dtype=np.int64)
    i = arr[:, 0]
    j = arr[:, 1]
    return distance_closed_array(i[:, None], j[:, None], i[None, :], j[None, :])


def distance_bfs(u: Vertex, v: Vertex) -> int:
    """Exact graph distance by breadth-first search."""
    return bfs_distances(u, [v])[v]


def bfs_distances(source: Vertex, targets) -> dict[Vertex, int]:
    """BFS distances from ``source`` to every cell in ``targets``.

    One breadth-first sweep, expanding until all targets are found.
    """
    remaining = set(targets)
    out: dict[Vertex, int] = {}
    if source in remaining:
        out[source] = 0
        remaining.discard(source)
    if not remaining:
        return out
    cap = max(2 * (abs(t[0] - source[0]) + abs(t[1] - source[1])) + 8 for t in remaining)
    seen = {source}
    frontier = deque([source])
    depth = 0
    while frontier and remaining:
        depth += 1
        if depth > cap:
            raise AssertionError(f"BFS sweep runaway from {source}")
        for _ in range(len(frontier)):
            ci, cj = frontier.popleft()
            horizontal = (ci + 1, cj) if (ci + cj) % 2 == 0 else (ci - 1, cj)
            for nb in (horizontal, (ci, cj + 1), (ci, cj - 1)):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
                    if nb in remaining:
                        out[nb] = depth
                        remaining.discard(nb)
    return out


def distance_field(source: Vertex, di_max: int, dj_max: int,
                   stop_mask: np.ndarray | None = None) -> np.ndarray:
    """BFS distance to every cell of the box |i-si| <= di_max,
    |j-sj| <= dj_max, as an array indexed [i - si + di_max, j - sj + dj_max].

    Level-synchronous sweep with the three neighbour shifts.  Unreached
    cells hold -1.  Distances are exact for any cell whose geodesic fits
    in the box; a geodesic of length L satisfies |di| <= (L+1)/2 and
    |dj| <= L along its whole course, which is how callers size the box.
    ``stop_mask`` (same shape) lets the sweep stop early once every
    flagged cell has been reached.
    """
    w = 2 * di_max + 1
    h = 2 * dj_max + 1
    ii = np.arange(w)[:, None] + (source[0] - di_max)
    jj = np.arange(h)[None, :] + (source[1] - dj_max)
    even = ((ii + jj) % 2) == 0
    dist = np.full((w, h), -1, dtype=np.int32)
    frontier = np.zeros((w, h), dtype=bool)
    frontier[di_max, dj_max] = True
    dist[di_max, dj_max] = 0
    waiting = int(stop_mask.sum() - stop_mask[di_max, dj_max]) if stop_mask is not None else -1
    d = 0
    while frontier.any():
        if waiting == 0:
            break
        d += 1
        nxt = np.zeros_like(frontier)
        nxt[:, 1:] |= frontier[:, :-1]
        nxt[:, :-1] |= frontier[:, 1:]
        fe = frontier & even
        nxt[1:, :] |= fe[:-1, :]
        fo = frontier & ~even
        nxt[:-1, :] |= fo[1:, :]
        nxt &= dist < 0
        dist[nxt] = d
        if stop_mask is not None:
            waiting -= int((nxt & stop_mask).sum())
        frontier = nxt
    return dist


@lru_cache(maxsize=32)
def _handed_fields(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """``distance_field`` from (0, 0) and from (1, 0) over the box
    ((radius+1)//2, radius), read-only; one pair per radius."""
    fields = tuple(distance_field(src, (radius + 1) // 2, radius) for src in ((0, 0), (1, 0)))
    for f in fields:
        f.setflags(write=False)
    return fields


def distance_within(u: Vertex, v: Vertex, radius: int) -> int | None:
    """BFS distance from u to v if it is at most ``radius``, else None."""
    di = v[0] - u[0]
    dj = v[1] - u[1]
    di_max = (radius + 1) // 2
    if abs(di) > di_max or abs(dj) > radius:
        return None
    d = int(_handed_fields(radius)[parity(u)][di + di_max, dj + radius])
    return d if 0 <= d <= radius else None


def translate(v: Vertex, t: Vertex) -> Vertex:
    return (v[0] + t[0], v[1] + t[1])


def is_even_translation(t: Vertex) -> bool:
    """Even translations preserve handedness and are graph automorphisms."""
    return (t[0] + t[1]) % 2 == 0
