import ast
import inspect
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexspan import coloring
from hexspan.coloring import lattice_geometry, quotient_conflicts, window_conflicts
from hexspan.errors import InputError
from hexspan.rings import ball
from hexspan.solver import (
    MAX_NODES,
    ResourceGuard,
    brute_force_chromatic,
    greedy_clique,
    solve_coloring,
)
from hexspan.spans import span_even


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
    assert solve_coloring(adj, 4)[0] is None
    colors, _ = solve_coloring(adj, 5)
    _check_assignment(adj, colors, 5)


def test_empty_and_trivial():
    # (colors, nodes): one node per colored vertex, and one for the full coloring
    assert solve_coloring([], 0) == ([], 0)
    assert solve_coloring([0, 0, 0], 1) == ([0, 0, 0], 4)
    assert solve_coloring([0], 0) == (None, 0)


def test_budget_beyond_the_vertex_count():
    # the state is sized by min(budget, n), not by the budget
    assert solve_coloring(_complete(3), 10 ** 12) == ([0, 1, 2], 4)


def test_cycle5_needs_three():
    n = 5
    adj = [0] * n
    for v in range(n):
        adj[v] |= 1 << ((v + 1) % n)
        adj[(v + 1) % n] |= 1 << v
    assert solve_coloring(adj, 2)[0] is None
    _check_assignment(adj, solve_coloring(adj, 3)[0], 3)


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
    runs = [solve_coloring(adj, 5) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


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
    # the node count returned is the least limit that decides
    adj = window_conflicts(ball((0, 0), 3), 4)
    assert solve_coloring(adj, 10, max_nodes=33) == (None, 33)
    with pytest.raises(ResourceGuard, match="exceeded 32 nodes"):
        solve_coloring(adj, 10, max_nodes=32)


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
    colors, visited = solve_coloring(adj, budget)
    assert (colors is not None, visited) == (feasible, nodes)


@pytest.mark.parametrize("l, radius, budget, feasible, nodes", [
    (8, 5, 31, False, 723),
    (4, 7, 11, True, 4204),
    (6, 6, 20, True, 8573),
    (6, 8, 20, True, 9211),
    (8, 7, 33, True, 20958),
    (8, 7, 32, False, 470836),
])
def test_window_node_counts_pinned(l, radius, budget, feasible, nodes):
    # window-sized instances of the exact window decisions
    adj = window_conflicts(ball((0, 0), radius), l)
    colors, visited = solve_coloring(adj, budget)
    assert (colors is not None, visited) == (feasible, nodes)


def test_the_node_limit_is_one_library_constant(monkeypatch):
    # a window's coloring and a whole periodic search stop at the same limit
    assert MAX_NODES == 5_000_000
    assert inspect.signature(solve_coloring).parameters["max_nodes"].default == MAX_NODES
    limits = []

    def spy(adj, budget, max_nodes):
        limits.append(max_nodes)
        return solve_coloring(adj, budget, max_nodes)

    monkeypatch.setattr(coloring, "solve_coloring", spy)
    # the span search runs no DSATUR; below the span the first lattice to
    # reach it gets the whole limit, and each later one what is left (33
    # nodes spent on each refutation)
    assert coloring.search_periodic(8, colors=32, max_det=110).coloring is None
    assert limits == [MAX_NODES, MAX_NODES - 33, MAX_NODES - 66]


def test_deep_search_leaves_recursion_limit_alone():
    before = sys.getrecursionlimit()
    assert solve_coloring([0] * 1500, 1) == ([0] * 1500, 1501)
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
    assert solve_coloring(adj, chi - 1)[0] is None or chi == 0
    colors, _ = solve_coloring(adj, chi)
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
        expected = _reference_solve_coloring(adj, budget, cap)
    except ResourceGuard:
        with pytest.raises(ResourceGuard):
            solve_coloring(adj, budget, max_nodes=cap)
        return
    assert solve_coloring(adj, budget, max_nodes=cap) == expected


def test_largest_pinned_window_colors_as_the_reference_solver():
    adj = window_conflicts(ball((0, 0), 7), 8)
    expected = _reference_solve_coloring(adj, 33, 20958)
    assert expected[1] == 20958
    assert solve_coloring(adj, 33) == expected


# every window-exact decision that reaches DSATUR; the others exceed
# their budget with a clique
@pytest.mark.parametrize("l, radius, budget", [
    (4, 7, 11), (4, 8, 11), (4, 9, 11), (4, 10, 11), (4, 11, 11),
    (6, 6, 20), (6, 7, 20), (6, 8, 20), (6, 9, 20), (6, 10, 20), (6, 11, 20),
    (8, 7, 33),
    (8, 5, 31), (8, 6, 31), (8, 7, 31), (8, 8, 31), (8, 9, 31), (8, 10, 31), (8, 11, 31),
])
def test_window_decisions_as_the_reference_solver(l, radius, budget):
    adj = window_conflicts(ball((0, 0), radius), l)
    assert solve_coloring(adj, budget) == _reference_solve_coloring(adj, budget, MAX_NODES)


@pytest.mark.slow
def test_l8_radius7_window_is_not_32_colorable_for_the_reference_solver():
    # the machine half of the l = 8 span, decided by both solvers
    adj = window_conflicts(ball((0, 0), 7), 8)
    expected = _reference_solve_coloring(adj, 32, MAX_NODES)
    assert expected == (None, 470836)
    assert solve_coloring(adj, 32) == expected


def test_a_backtracked_vertex_skips_its_blocked_colors():
    # with vertices 0, 2 and 6 colored 0, 1 and 2, vertex 3 takes color 0;
    # when the search comes back to it, color 1 is blocked by its neighbor
    # 2, so its next color is 2, not 1
    edges = [(0, 2), (0, 4), (0, 6), (1, 3), (1, 4), (1, 5), (2, 3), (2, 6), (3, 5), (4, 5)]
    adj = [0] * 7
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    expected = ([0, 0, 1, 2, 2, 1, 2], 13)
    assert _reference_solve_coloring(adj, 3, 100) == expected
    assert solve_coloring(adj, 3) == expected


def _star(n):
    return [(1 << n) - 2] + [1] * (n - 1)


@st.composite
def window_like_graphs(draw):
    """A random subset of a ball, up to 60 cells, joined at distance <= l
    for l in 2..8, with a budget near its greedy clique: dense graphs
    whose search backtracks with small tie sets, like the window
    decisions'."""
    l = draw(st.integers(2, 8))
    cells = draw(st.lists(st.sampled_from(ball((0, 0), 6)), min_size=1, max_size=60,
                          unique=True))
    adj = window_conflicts(cells, l)
    return adj, max(1, len(greedy_clique(adj)) + draw(st.integers(-1, 2)))


@given(window_like_graphs())
@example(([0] * 300, 1))
@example((_star(300), 1))
@example((_star(300), 2))
@settings(max_examples=60, deadline=None)
def test_same_search_as_the_reference_solver_on_window_like_graphs(graph):
    adj, budget = graph
    cap = 5000
    try:
        expected = _reference_solve_coloring(adj, budget, cap)
    except ResourceGuard:
        with pytest.raises(ResourceGuard):
            solve_coloring(adj, budget, max_nodes=cap)
        return
    assert solve_coloring(adj, budget, max_nodes=cap) == expected


def _reference_greedy_clique(adj, *, exceed=None):
    """The greedy clique that recounts every candidate's in-candidate
    degree at every step, kept as the reference for the bit-sliced one."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best = []
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


@st.composite
def graphs_with_ties(draw):
    """Up to 60 vertices of any density; half the time each vertex is a
    copy of one of a few base vertices (joined as its base is, and to its
    fellow copies or not), so many degrees and picks tie."""
    n = draw(st.integers(0, 60))
    density = draw(st.floats(0, 1))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        base = [rnd.randrange(k) for _ in range(n)]
        joined = {(a, b): rnd.random() < density for a in range(6) for b in range(a, 6)}
        related = lambda u, v: joined[min(base[u], base[v]), max(base[u], base[v])]
    else:
        related = lambda u, v: rnd.random() < density
    adj = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if related(u, v):
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return adj


@given(graphs_with_ties(), st.one_of(st.none(), st.integers(0, 20)))
@example([], None)
@example([0] * 30, None)
@example([0] * 30, 0)
@example(_complete(40), None)
@example(_complete(40), 5)
@example(_star(60), None)
@example(_star(60), 1)
@example(_star(60), 2)
@settings(max_examples=500, deadline=None)
def test_greedy_clique_matches_the_reference(adj, exceed):
    assert greedy_clique(adj, exceed=exceed) == _reference_greedy_clique(adj, exceed=exceed)


def test_greedy_clique_matches_the_reference_on_the_l8_search(monkeypatch):
    calls = []

    def spy(adj, *, exceed=None):
        calls.append((adj, exceed))
        return greedy_clique(adj, exceed=exceed)

    monkeypatch.setattr(coloring, "greedy_clique", spy)
    result = coloring.search_periodic(8)
    # the other 127 lattices tried are symmetric images of rejected ones;
    # the 35 rejected ones have complete quotient graphs, and the success
    # lattice's graph is K_66 minus a perfect matching: the orbit row
    # decides all 36, and no graph meets the greedy clique
    assert result.lattices_tried == 163
    assert calls == []
    # the 36 graphs, success included, that are not symmetric images
    bases = [ast.literal_eval(line.split("basis ")[1].split(":")[0])
             for line in result.log if "symmetric image of" not in line]
    assert len(bases) == 36
    for basis in bases:
        adj = quotient_conflicts(lattice_geometry(basis), 8)
        for exceed in (None, 33):
            assert greedy_clique(adj, exceed=exceed) == _reference_greedy_clique(adj, exceed=exceed)
    # the last is the success lattice, whose clique is the 33 colours it takes
    assert len(greedy_clique(adj)) == 33


@pytest.mark.parametrize("l", range(8, 25, 2))
def test_greedy_clique_finds_the_span_on_the_success_graphs(l):
    # the quotient graph of search_periodic(l)'s success lattice, the
    # closed-form basis pinned in test_coloring: t1 = (1 + c, 1 - c),
    # t2 = (S, -S), S the span.  Its orbit row misses one coset, so the
    # graph is K_2S minus a perfect matching: every greedy pick drops only
    # its partner, and each of the 24 starts ends at S cells
    s = span_even(l).span
    c = 3 * l // 4 if l % 4 == 0 else 3 * l // 2 + 2
    geo = lattice_geometry(((1 + c, 1 - c), (s, -s)))
    assert len(coloring._missed(geo, l)) == 1
    adj = quotient_conflicts(geo, l)
    expected = _reference_greedy_clique(adj)
    assert len(expected) == s
    assert greedy_clique(adj) == greedy_clique(adj, exceed=s) == expected
    assert _reference_greedy_clique(adj, exceed=s) == expected
    assert len(greedy_clique(adj, exceed=s - 1)) == s


def test_negative_budget_is_an_input_error():
    with pytest.raises(InputError, match="budget must be >= 0"):
        solve_coloring([0, 0], -1)
