import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexspan.coloring import lattice_geometry, quotient_conflicts, window_conflicts
from hexspan.rings import ball
from hexspan.solver import (
    ResourceGuard,
    brute_force_chromatic,
    greedy_clique,
    solve_coloring,
)


def _check_assignment(adj, colors, budget):
    assert len(colors) == len(adj)
    assert all(0 <= c < budget for c in colors)
    for v, mask in enumerate(adj):
        u = 0
        m = mask
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            assert colors[u] != colors[v]


def _complete(n):
    return [((1 << n) - 1) ^ (1 << v) for v in range(n)]


def test_complete_graph():
    adj = _complete(5)
    assert solve_coloring(adj, 4) is None
    colors = solve_coloring(adj, 5)
    _check_assignment(adj, colors, 5)


def test_empty_and_trivial():
    assert solve_coloring([], 0) == []
    assert solve_coloring([0, 0, 0], 1) == [0, 0, 0]
    assert solve_coloring([0], 0) is None


def test_budget_beyond_the_vertex_count():
    # the state is sized by min(budget, n), not by the budget
    assert solve_coloring(_complete(3), 10 ** 12) == [0, 1, 2]


def test_cycle5_needs_three():
    n = 5
    adj = [0] * n
    for v in range(n):
        adj[v] |= 1 << ((v + 1) % n)
        adj[(v + 1) % n] |= 1 << v
    assert solve_coloring(adj, 2) is None
    _check_assignment(adj, solve_coloring(adj, 3), 3)


def test_greedy_clique_on_complete():
    assert len(greedy_clique(_complete(7))) == 7
    assert greedy_clique([0, 0]) == [0] or len(greedy_clique([0, 0])) == 1


def test_greedy_clique_exceed_stops_at_the_first_oversize_clique():
    # vertex 0 has the highest degree but only grows the triangle {0, 1, 2};
    # the next start, vertex 9, grows the 5-clique on 9..13
    adj = [0] * 14
    edges = [(0, v) for v in range(1, 9)] + [(1, 2)]
    edges += [(u, v) for u in range(9, 14) for v in range(u + 1, 14)]
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert greedy_clique(adj) == [9, 10, 11, 12, 13]
    assert greedy_clique(adj, exceed=2) == [0, 1, 2]
    assert greedy_clique(adj, exceed=3) == [9, 10, 11, 12, 13]
    for t in range(7):
        assert (len(greedy_clique(adj, exceed=t)) > t) == (len(greedy_clique(adj)) > t)


def test_greedy_clique_exceed_keeps_the_verdict_on_quotient_graphs():
    # for l = 4/6/8, the first admissible lattice and the first three whose
    # quotient graph is not complete (det 22 / 40 / 66)
    cases = {
        4: [((3, -1), (7, -7)), ((3, -1), (11, -11)), ((4, -2), (11, -11)),
            ((5, -3), (11, -11))],
        6: [((4, 0), (6, -6)), ((9, -7), (20, -20)), ((12, -10), (20, -20)),
            ((7, 1), (5, -5))],
        8: [((8, -6), (19, -19)), ((7, -5), (33, -33)), ((15, -13), (33, -33)),
            ((19, -17), (33, -33))],
    }
    cliques = {}
    for l, bases in cases.items():
        for basis in bases:
            adj = quotient_conflicts(lattice_geometry(basis), l)
            full = cliques[l, basis] = greedy_clique(adj)
            s = len(full)
            for t in (s - 1, s, s + 1):
                assert (len(greedy_clique(adj, exceed=t)) > t) == (s > t), (l, basis, t)
    # the default call returns the best of all 24 starts, as before
    assert cliques[4, ((3, -1), (7, -7))] == list(range(14))
    assert cliques[4, ((3, -1), (11, -11))] == list(range(11))
    assert cliques[6, ((9, -7), (20, -20))] == list(range(11)) + list(range(12, 29, 2))
    assert cliques[8, ((7, -5), (33, -33))] == list(range(15)) + list(range(16, 51, 2))


def test_determinism():
    adj = _complete(6)
    adj[0] &= ~(1 << 5)
    adj[5] &= ~1
    runs = {tuple(solve_coloring(adj, 5)) for _ in range(3)}
    assert len(runs) == 1


def test_resource_guard_raises():
    # Kneser-ish hard-ish instance with a tiny node budget
    n = 12
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if (u + v) % 3 != 0:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    with pytest.raises(ResourceGuard):
        solve_coloring(adj, 3, max_nodes=2)


@pytest.mark.parametrize("radius, budget, feasible, nodes", [
    (3, 10, False, 33),
    (3, 11, True, 20),
    (4, 10, False, 33),
    (4, 11, True, 32),
])
def test_node_counts_pinned(radius, budget, feasible, nodes):
    # l = 4 windows; the counts pin the pick rule, the color order and
    # what counts as one search node
    adj = window_conflicts(ball((0, 0), radius), 4)
    assert (solve_coloring(adj, budget, max_nodes=nodes) is not None) == feasible
    with pytest.raises(ResourceGuard):
        solve_coloring(adj, budget, max_nodes=nodes - 1)


@pytest.mark.parametrize("l, radius, budget, feasible, nodes", [
    (8, 5, 31, False, 723),
    (4, 7, 11, True, 4204),
    (6, 6, 20, True, 8573),
])
def test_window_node_counts_pinned(l, radius, budget, feasible, nodes):
    # window-sized instances of the exact window decisions
    adj = window_conflicts(ball((0, 0), radius), l)
    assert (solve_coloring(adj, budget, max_nodes=nodes) is not None) == feasible
    with pytest.raises(ResourceGuard):
        solve_coloring(adj, budget, max_nodes=nodes - 1)


def test_deep_search_leaves_recursion_limit_alone():
    before = sys.getrecursionlimit()
    assert solve_coloring([0] * 1500, 1) == [0] * 1500
    assert sys.getrecursionlimit() == before


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if draw(st.booleans()):
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_against_brute_force(adj):
    chi = brute_force_chromatic(adj)
    assert solve_coloring(adj, chi - 1) is None or chi == 0
    colors = solve_coloring(adj, chi)
    _check_assignment(adj, colors, chi)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_clique_never_exceeds_chromatic(adj):
    assert len(greedy_clique(adj)) <= brute_force_chromatic(adj)


@given(random_graphs(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_greedy_clique_exceed_matches_full_verdict(adj, t):
    assert (len(greedy_clique(adj, exceed=t)) > t) == (len(greedy_clique(adj)) > t)


def _reference_solve_coloring(adj, budget, max_nodes):
    """The per-neighbor DSATUR that the bitset solver replaced, kept as
    the reference for its pick rule, color order and node count.
    Returns (colors or None, nodes); raises ResourceGuard past
    ``max_nodes``."""
    n = len(adj)
    if n == 0:
        return [], 0
    if budget == 0:
        return None, 0
    colors = [-1] * n
    neighbor_colors = [0] * n
    uncolored_deg = [m.bit_count() for m in adj]
    stack = []
    used = 0
    nodes = 0
    while True:
        nodes += 1
        if nodes > max_nodes:
            raise ResourceGuard(f"coloring search exceeded {max_nodes} nodes")
        if len(stack) == n:
            return colors, nodes
        v = -1
        best_key = (-1, -1, 0)
        for u in range(n):
            if colors[u] < 0:
                key = (neighbor_colors[u].bit_count(), uncolored_deg[u], -u)
                if key > best_key:
                    best_key = key
                    v = u
        avail = ~neighbor_colors[v] & ((1 << min(used + 1, budget)) - 1)
        while not avail:
            if not stack:
                return None, nodes
            v, c, avail, used, touched = stack.pop()
            bit = 1 << c
            m = adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                uncolored_deg[u] += 1
            for u in touched:
                neighbor_colors[u] &= ~bit
            colors[v] = -1
        c = (avail & -avail).bit_length() - 1
        avail &= avail - 1
        colors[v] = c
        touched = []
        bit = 1 << c
        m = adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            uncolored_deg[u] -= 1
            if colors[u] < 0 and not neighbor_colors[u] & bit:
                neighbor_colors[u] |= bit
                touched.append(u)
        stack.append((v, c, avail, used, touched))
        used = max(used, c + 1)


@st.composite
def graphs_of_any_density(draw):
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0, 1))
    rnd = draw(st.randoms(use_true_random=False))
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if rnd.random() < density:
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


@given(graphs_of_any_density(), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_same_search_as_the_reference_solver(adj, budget):
    cap = 2000
    try:
        expected, nodes = _reference_solve_coloring(adj, budget, cap)
    except ResourceGuard:
        with pytest.raises(ResourceGuard):
            solve_coloring(adj, budget, max_nodes=cap)
        return
    assert solve_coloring(adj, budget, max_nodes=nodes) == expected
    if nodes:
        with pytest.raises(ResourceGuard):
            solve_coloring(adj, budget, max_nodes=nodes - 1)
