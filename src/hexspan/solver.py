"""Exact bounded-palette graph coloring by DSATUR branch and bound.

The solver answers "is this graph colorable with at most B colors" and,
when feasible, returns one assignment.  Vertex selection is greatest
saturation first (ties: higher uncolored degree, then lower index) and
color symmetry is broken by first-use indexing: a vertex may only open
color c+1 when colors 0..c are already in use.  The search is fully
deterministic (DSATUR: Brélaz, CACM 1979).

The search state is held in bitsets over the vertices, in the manner of
San Segundo et al.'s bit-parallel clique search (Computers & OR, 2011),
so one search node costs a few big-int operations, not a loop over the
vertices or a vertex's neighbors:

* ``uncolored``: the vertices without a color;
* ``blocked[c]``: the vertices with a neighbor colored c;
* saturation and uncolored degree as bit-sliced counters: plane i holds
  bit i of every vertex's count.  Coloring v with c adds
  ``adj[v] & ~blocked[c]`` to the saturation planes (ripple carry) and
  subtracts ``adj[v]`` from the degree planes (ripple borrow).

The pick narrows ``uncolored`` plane by plane from the top, first to the
greatest saturation, then to the greatest degree, and takes the lowest
set bit.  Python ints are immutable, so each stack frame keeps the plane
lists and the ``blocked[c]`` row its vertex replaced, and undoing a
color is restoring them.

Resource limits raise ``ResourceGuard``.  A guarded run never returns a
wrong verdict; it refuses.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


class ResourceGuard(Exception):
    """Raised when a search would exceed its configured resource limit."""


def bitmask_graph(related: np.ndarray) -> list[int]:
    """Bitmask adjacency of a square boolean relation: bit b of row a is
    set iff ``related[a, b]`` and a != b."""
    rows = np.array(related, dtype=bool)
    np.fill_diagonal(rows, False)
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def greedy_clique(adj: list[int], *, exceed: int | None = None) -> list[int]:
    """The largest of the maximal cliques grown greedily from the 24
    highest-degree starts (largest degree first).  Its size is a valid
    lower bound on the chromatic number.

    With ``exceed``, the first clique larger than ``exceed`` is returned
    at once.  The starts are tried in the same order, so
    ``len(clique) > exceed`` is the same verdict as for the full search;
    only the size reported for a rejection may be smaller."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best: list[int] = []
    for start in order[: min(n, 24)]:
        clique = [start]
        cand = adj[start]
        while cand:
            # highest-degree candidate inside the running intersection
            pick = -1
            pick_deg = -1
            c = cand
            while c:
                v = (c & -c).bit_length() - 1
                c &= c - 1
                deg = (adj[v] & cand).bit_count()
                if deg > pick_deg:
                    pick, pick_deg = v, deg
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
            if exceed is not None and len(best) > exceed:
                break
    return sorted(best)


def solve_coloring(adj: list[int], budget: int,
                   max_nodes: int | None = None) -> list[int] | None:
    """Color the graph with at most ``budget`` colors.

    ``adj`` is a bitmask adjacency list (bit u of adj[v] set iff u~v).
    Returns a color list (values 0..budget-1) or None when impossible.

    The depth-first search runs over an explicit stack with one frame
    per colored vertex: the vertex, its color, the colors still to try,
    the number of colors in use before it, and the saturation planes,
    degree planes and ``blocked`` row it replaced.  Every visit to a
    partial coloring is one node; ``max_nodes`` bounds their number.
    """
    n = len(adj)
    if budget < 0:
        raise InputError("budget must be >= 0")
    if n == 0:
        return []
    if budget == 0:
        return None
    budget = min(budget, n)         # n colors always suffice
    colors = [-1] * n
    uncolored = (1 << n) - 1
    blocked = [0] * budget          # vertices with a neighbor colored c
    sat = [0] * budget.bit_length()  # a saturation never exceeds budget
    degrees = [m.bit_count() for m in adj]
    deg = [sum(1 << v for v, d in enumerate(degrees) if d >> i & 1)
           for i in range(max(degrees).bit_length())]
    stack: list[tuple] = []
    used = 0
    nodes = 0
    while True:
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise ResourceGuard(f"coloring search exceeded {max_nodes} nodes")
        if not uncolored:
            return colors
        # greatest saturation, then uncolored degree, then lowest index:
        # from the top plane down, keep the candidates with the bit set
        # whenever some have it
        cand = uncolored
        for plane in reversed(sat):
            if cand & plane:
                cand &= plane
        for plane in reversed(deg):
            if cand & plane:
                cand &= plane
        bit = cand & -cand
        v = bit.bit_length() - 1
        avail = 0
        for c in range(min(used + 1, budget)):
            if not blocked[c] & bit:
                avail |= 1 << c
        # out of colors for v: undo the deepest colored vertex and move on
        # to its next color, until some vertex has one left
        while not avail:
            if not stack:
                return None
            v, c, avail, used, sat, deg, row = stack.pop()
            blocked[c] = row
            colors[v] = -1
            bit = 1 << v
            uncolored |= bit
        # give v its lowest remaining color and descend
        c = (avail & -avail).bit_length() - 1
        avail &= avail - 1
        stack.append((v, c, avail, used, sat, deg, blocked[c]))
        colors[v] = c
        uncolored ^= bit
        m = adj[v]
        # saturation += 1 where c is new (ripple carry), degree -= 1 on
        # every neighbor (ripple borrow); the old lists stay in the frame
        sat, deg = sat[:], deg[:]
        carry, borrow = m & ~blocked[c], m
        i = 0
        while carry:
            sat[i], carry = sat[i] ^ carry, sat[i] & carry
            i += 1
        i = 0
        while borrow:
            deg[i], borrow = deg[i] ^ borrow, ~deg[i] & borrow
            i += 1
        blocked[c] |= m
        used = max(used, c + 1)


def brute_force_chromatic(adj: list[int]) -> int:
    """Reference chromatic number by plain lexicographic backtracking.

    Independent of the DSATUR path on purpose; only suitable for tiny
    graphs (tests use it as the second route).
    """
    n = len(adj)
    if n == 0:
        return 0

    def feasible(budget: int) -> bool:
        colors = [-1] * n

        def rec(v: int) -> bool:
            if v == n:
                return True
            used = max(colors[:v], default=-1) + 1
            for c in range(min(used + 1, budget)):
                ok = True
                m = adj[v]
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    if u < v and colors[u] == c:
                        ok = False
                        break
                if ok:
                    colors[v] = c
                    if rec(v + 1):
                        return True
                    colors[v] = -1
            return False

        return rec(0)

    b = 1
    while not feasible(b):
        b += 1
    return b
