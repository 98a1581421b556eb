"""Bitmask graphs: exact bounded-palette coloring by DSATUR branch and
bound, and the two clique routines: ``greedy_clique``, the lower bound
the window and periodic searches test first, and ``_max_clique_bits``,
the exact maximum clique under the reuse battery's spreads.

The solver answers "is this graph colorable with at most B colors" and,
when feasible, returns one assignment, with the search nodes it visited.
Vertex selection is greatest saturation first (ties: more uncolored
neighbors, then lower index) and color symmetry is broken by first-use
indexing: a vertex may only open color c+1 when colors 0..c are already
in use.  The search is fully deterministic (DSATUR: Brélaz, CACM 1979).

The state is held in bitsets over the vertices, in the manner of San
Segundo et al.'s bit-parallel clique search (Computers & OR, 2011):
``uncolored``; ``blocked[c]``, the vertices with a neighbor colored c;
and the saturations as bit-sliced counters (one plane per bit of every
count, the top plane first), to which coloring v with c adds
``adj[v] & ~blocked[c]`` by ripple carry.  The pick narrows
``uncolored`` plane by plane from the top to the greatest saturation s;
if more than one candidate is left, each tied candidate u then counts
its uncolored neighbors, ``(adj[u] & uncolored).bit_count()``, on the
spot.  The pick sees s of the k = min(used + 1, budget) colors it may
take, so k - s are free: with none the search goes straight back to
its last choice point, a vertex colored with free colors left to try,
without breaking the tie; else the color scan stops at the lowest free
color.  The vertex of a choice point resumes its scan above its last
color, skipping the colors still blocked.  Ties cost O(ties * n / 64)
word operations per node: cheap on the dense window and quotient graphs
(about three ties per node), slow on very sparse ones (an edgeless
graph or a star on 1,500 vertices: 0.4 s on a 2-vCPU Xeon).
Resource limits raise ``ResourceGuard``: a guarded run refuses, and
never returns a wrong verdict.

``greedy_clique`` keeps each start's in-candidate degrees in bit-sliced
planes too, and updates them row by row as the candidates shrink
instead of recounting every candidate at every pick: a start costs
O(deg(start) * log deg) word operations on n-bit rows, not
O(clique size * deg) popcounts.

``_max_clique_bits`` bounds the clique number by ``_colour_classes``,
the class count of a greedy colouring (a clique takes at most one
vertex per class; San Segundo et al.); ``greedy_clique`` has no such
stop.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceGuard


def bitmask_graph(related: np.ndarray, first: int = 0) -> list[int]:
    """Bitmask adjacency rows of a boolean relation whose row a is vertex
    ``first + a``: bit b of row a is set iff ``related[a, b]`` and
    b != first + a.  A square relation with ``first = 0`` is the whole
    graph; a block of rows is part of it."""
    rows = np.array(related, dtype=bool)
    # the diagonal of the columns from ``first`` on is each row's own vertex
    np.fill_diagonal(rows[:, first:], False)
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def greedy_clique(adj: list[int], *, exceed: int | None = None) -> list[int]:
    """The largest of the maximal cliques grown greedily from the 24
    highest-degree starts (largest degree first).  Each step adds the
    candidate with the most neighbors among the candidates (lowest index
    on ties) and keeps only its neighbors.  The size is a valid lower
    bound on the chromatic number.

    With ``exceed``, the first clique larger than ``exceed`` is returned
    at once.  The starts are tried in the same order, so
    ``len(clique) > exceed`` is the same verdict as for the full search;
    only the size reported for a rejection may be smaller.

    ``adj`` must be symmetric: each start holds the in-candidate degrees
    as bit-sliced counters (plane i holds bit i of ``|adj[v] & cand|``),
    built by adding ``adj[u] & cand`` for every candidate u by ripple
    carry.  A pick narrows ``cand`` plane by plane from the top and takes
    the lowest bit left; shrinking ``cand`` borrow-subtracts the rows of
    the vertices it drops.  A start thus makes O(deg(start)) row updates
    of O(log deg) word operations each, where recounting every candidate
    at every step costs O(clique size * deg) popcounts."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best: list[int] = []
    for start in order[: min(n, 24)]:
        clique = [start]
        cand = adj[start]
        planes = [0] * cand.bit_count().bit_length()
        c = cand
        while c:
            low = c & -c
            c ^= low
            carry = adj[low.bit_length() - 1] & cand
            i = 0
            while carry:
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                i += 1
        while cand:
            # highest in-candidate degree: from the top plane down, keep
            # the candidates with the bit set whenever some have it
            c = cand
            for plane in reversed(planes):
                if c & plane:
                    c &= plane
            pick = (c & -c).bit_length() - 1
            clique.append(pick)
            gone = cand & ~adj[pick]
            cand ^= gone
            # the dropped vertices no longer count toward those left
            while gone and cand:
                low = gone & -gone
                gone ^= low
                borrow = adj[low.bit_length() - 1] & cand
                i = 0
                while borrow:
                    planes[i], borrow = planes[i] ^ borrow, ~planes[i] & borrow
                    i += 1
        if len(clique) > len(best):
            best = clique
            if exceed is not None and len(best) > exceed:
                break
    return sorted(best)


def _colour_classes(cand: int, others: list[int], cap: int) -> int:
    """Classes of a greedy colouring of the candidate bitset ``cand``, or
    ``cap + 1`` once they exceed ``cap``.  Each class takes, in index
    order, every uncoloured vertex that ``others`` lets share a class
    with all it holds so far (``others[v]``: the vertices v may share a
    class with)."""
    uncoloured = cand
    classes = 0
    while uncoloured and classes <= cap:
        classes += 1
        free = uncoloured
        while free:
            bit = free & -free
            uncoloured ^= bit
            free &= others[bit.bit_length() - 1]
    return classes if not uncoloured else cap + 1


def _max_clique_bits(masks: list[int], others: list[int], cand: int) -> tuple[int, int]:
    """Maximum clique of the bitmask graph ``masks`` inside the candidate
    bitset ``cand``: (size, member bitset).  ``others[v]`` is
    ``~(masks[v] | 1 << v)``, the vertices v may share a colour class with;
    a caller that searches one graph many times builds it once.

    Every step stays inside ``cand``, so the result is the one the search
    would return on the subgraph induced by ``cand``, renumbered in the
    same order: same branching order, colour classes and bounds.

    Branches on candidates in increasing index order and keeps the first
    clique of each new best size.  Two bounds prune a node: the number of
    candidates, and the number of classes of a greedy colouring of the
    candidates (a clique takes at most one cell per class; San Segundo
    et al.).  Both cut only subtrees that cannot beat the incumbent
    strictly, so the clique returned is the one the unpruned search
    would keep.

    A third bound ends the whole search: the class count of a greedy
    colouring of all of ``cand`` bounds the clique number, so once the
    incumbent reaches it no strictly larger clique exists.  The
    unpruned search would only replace the incumbent by a strictly
    larger clique, so stopping there returns the same (size, bitset).
    On the reuse battery's compatibility graphs the bound is usually
    tight.
    """
    best_size = 0
    best_set = 0

    def expand(cur: int, cur_size: int, cand: int) -> None:
        nonlocal best_size, best_set
        if cur_size > best_size:
            best_size, best_set = cur_size, cur
        # a clique within cand takes one cell per class, so it cannot beat
        # the incumbent if the classes fit in the slack best_size - cur_size;
        # at slack 0 that only asks whether cand is empty, which the loop
        # below answers
        slack = best_size - cur_size
        if slack and _colour_classes(cand, others, slack) <= slack:
            return
        while cand and best_size < bound:
            if cur_size + cand.bit_count() <= best_size:
                return
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            expand(cur | bit, cur_size + 1, cand & masks[v])

    bound = _colour_classes(cand, others, cand.bit_count())
    expand(0, 0, cand)
    # expand refers to itself; unbinding it breaks that cycle, so the
    # closure and its hold on the tables go now, not at the next cyclic
    # collection
    del expand
    return best_size, best_set


MAX_NODES = 5_000_000  # per request: one window, or one periodic search's lattices together


def solve_coloring(adj: list[int], budget: int,
                   max_nodes: int = MAX_NODES) -> tuple[list[int] | None, int]:
    """Color the graph with at most ``budget`` colors.

    ``adj`` is a bitmask adjacency list (bit u of adj[v] set iff u~v).
    Returns (colors, nodes): a color list (values 0..budget-1), or None
    when impossible, and the number of search nodes visited.

    The depth-first search keeps its undo state only at choice points.
    A vertex colored with more of its free colors left to try is one: it
    saves the vertex, its color, how many free colors are left, the
    number k of colors it could take, the saturation planes, a copy of
    ``blocked`` and ``uncolored``, all as they were at its pick.  The
    planes are copied there only and updated in place elsewhere.  A
    forced vertex, with one free color, saves nothing; each coloring
    writes ``colors[v]``, and a vertex colored again after a backtrack
    is written again, so the full coloring is ``colors`` as it stands.
    A node whose pick has no free color returns to the last choice point
    at once, restores its state and gives its vertex the next free color
    above its last.  That undoes exactly the vertices colored since, so
    the nodes are those of a search that undid one vertex at a time.
    Every visit to a partial coloring is one node; past ``max_nodes``
    the search raises ``ResourceGuard``: undecided, never infeasible.
    """
    n = len(adj)
    if budget < 0:
        raise InputError("budget must be >= 0")
    if n == 0:
        return [], 0
    if budget == 0:
        return None, 0
    budget = min(budget, n)         # n colors always suffice
    uncolored = (1 << n) - 1
    blocked = [0] * budget          # vertices with a neighbor colored c
    # a saturation never exceeds budget; the top plane comes first
    sat = [0] * budget.bit_length()
    low_plane = len(sat) - 1
    colors = [0] * n
    choices: list[tuple] = []
    k = 1                           # colors the next vertex may take: min(used + 1, budget)
    nodes = 0
    while True:
        nodes += 1
        if nodes > max_nodes:
            raise ResourceGuard(f"coloring search exceeded {max_nodes} nodes")
        if not uncolored:
            return colors, nodes
        # greatest saturation s: from the top plane down, keep the
        # candidates with the bit set whenever some have it
        cand = uncolored
        s = 0
        for plane in sat:
            s += s
            if cand & plane:
                cand &= plane
                s += 1
        # the pick sees s of the k colors it may take; the rest are free
        free = k - s
        if free:
            if cand & (cand - 1):
                # ties: most uncolored neighbors, then lowest index
                best = -1
                while cand:
                    low = cand & -cand
                    d = (adj[low.bit_length() - 1] & uncolored).bit_count()
                    if d > best:
                        best, bit = d, low
                    cand ^= low
            else:
                bit = cand
            v = bit.bit_length() - 1
            c = 0
        else:
            # out of colors: back to the last choice point, whose vertex
            # resumes above its last color
            if not choices:
                return None, nodes
            v, c, free, k, sat, blocked, uncolored = choices.pop()
            bit = 1 << v
            c += 1
        while blocked[c] & bit:
            c += 1
        if free > 1:
            choices.append((v, c, free - 1, k, sat, blocked[:], uncolored))
            sat = sat[:]
        colors[v] = c
        uncolored ^= bit
        m = adj[v]
        # saturation += 1 where c is new, by ripple carry
        carry = m & ~blocked[c]
        i = low_plane
        while carry:
            sat[i], carry = sat[i] ^ carry, sat[i] & carry
            i -= 1
        blocked[c] |= m
        if c + 1 == k < budget:     # v opened color c: one more may follow
            k += 1


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
                # no earlier neighbor of v holds c
                if all(colors[u] != c for u in range(v) if adj[v] >> u & 1):
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
