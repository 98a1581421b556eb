from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexspan.coloring import (
    ColoringFormatError,
    LatticeColoring,
    WindowColoring,
    _separation_ok,
    even_sublattices,
    exact_window_span,
    lattice_geometry,
    materialize_window,
    quotient_conflicts,
    read_coloring,
    search_lattice,
    search_periodic,
    single_coset_coloring,
    verify_lattice,
    verify_window,
    window_conflicts,
    write_coloring,
)
from hexspan.grid import distance_bfs, distance_closed, translate
from hexspan.reuse import compatibility_masks
from hexspan.rings import ball
from hexspan.solver import ResourceGuard

even_vectors = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
    lambda t: t if (t[0] + t[1]) % 2 == 0 else (t[0], t[1] + 1)
)


@given(even_vectors, st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 3)]))
def test_translation_distance_matches_bfs(t, v):
    # an even translation moves every cell by d((0, 0), t), which is what
    # _separation_ok reads off the closed form
    if t == (0, 0):
        return
    assert distance_closed((0, 0), t) == distance_bfs(v, translate(v, t))


def test_lattice_geometry_canonical():
    geo = lattice_geometry(((3, 7), (5, -1)))
    assert geo.det == abs(3 * (-1) - 7 * 5) == 38
    assert len(geo.cells()) == 38
    # both generators collapse to the origin cell
    assert geo.canonical((3, 7)) == (0, 0)
    assert geo.canonical((5, -1)) == (0, 0)
    assert geo.canonical((8, 6)) == (0, 0)
    # canonical is idempotent and stable under lattice shifts
    for v in [(2, 5), (-4, 9), (0, 0), (17, -3)]:
        c = geo.canonical(v)
        assert geo.canonical(c) == c
        assert geo.canonical(translate(v, (3, 7))) == c
    # on arrays of coordinates, negative ones included, canonical gives
    # the scalar result elementwise (quotient_conflicts relies on this)
    xs, ys = np.meshgrid(np.arange(-30, 31), np.arange(-45, 46), indexing="ij")
    for geo in (geo, lattice_geometry(((6, 4), (8, -8)))):
        assert geo.b > 0
        cx, cy = geo.canonical((xs, ys))
        assert cx.shape == cy.shape == xs.shape
        for x, y, i, j in zip(xs.flat, ys.flat, cx.flat, cy.flat):
            assert (i, j) == geo.canonical((int(x), int(y)))


def test_even_sublattice_enumeration_order_and_parity():
    seq = list(even_sublattices(16))
    dets = [det for det, _ in seq]
    assert dets == sorted(dets)
    assert all(det % 2 == 0 for det in dets)
    for det, (t1, t2) in seq:
        assert (t1[0] + t1[1]) % 2 == 0 and (t2[0] + t2[1]) % 2 == 0
        assert abs(t1[0] * t2[1] - t1[1] * t2[0]) == det
    # no duplicates in normal form
    assert len({basis for _, basis in seq}) == len(seq)


def _plain_graph(n, related):
    adj = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and related(a, b):
                adj[a] |= 1 << b
    return adj


def test_conflict_graphs_match_plain_pair_scans():
    # reference graphs built pair by pair over a box of lattice vectors,
    # with no numpy, no ball and no bitmask_graph; the admissible lattices
    # below det 22 (l = 4) and det 66 (l = 8) give complete graphs, so both
    # ends are sampled
    cases = []
    for l, min_det in ((4, 0), (4, 22), (6, 0), (8, 0), (8, 66), (10, 96)):
        admissible = (basis for det, basis in even_sublattices(200)
                      if det >= min_det and _separation_ok(basis, l))
        cases += [(l, basis) for basis in islice(admissible, 3)]
    # thin domains where every ball wraps its orbits many times: one column
    # (a = 1) and strips two rows high (d = 2); the conflict rule does not
    # need an admissible lattice
    cases += [(10, ((1, 1), (0, 24))), (10, ((12, 0), (0, 2))), (6, ((11, 1), (0, 2)))]
    for l, basis in cases:
        geo = lattice_geometry(basis)
        cells = geo.cells()
        lam = geo.points_in_box(geo.a + l + 2, geo.d + geo.b + l + 2)
        expected = _plain_graph(len(cells), lambda a, b: any(
            distance_closed(cells[a], translate(cells[b], t)) <= l for t in lam))
        assert quotient_conflicts(geo, l) == expected, (l, basis)
    cells = ball((0, 0), 5)
    n = len(cells)
    assert window_conflicts(cells, 4) == _plain_graph(
        n, lambda a, b: distance_closed(cells[a], cells[b]) <= 4)
    assert compatibility_masks(cells, 5) == _plain_graph(
        n, lambda a, b: distance_closed(cells[a], cells[b]) >= 5)


def test_sparse_lattice_is_valid():
    # generators with every coordinate >= l+1 keep all orbit distances big
    coloring = single_coset_coloring(10, ((12, 12), (12, -12)))
    assert coloring.color_count == coloring.det == 288
    result = verify_lattice(coloring)
    assert result.valid and not result.violations


def test_dense_lattice_rejected_with_witness():
    coloring = single_coset_coloring(10, ((2, 0), (0, 2)))
    result = verify_lattice(coloring)
    assert not result.valid
    v = result.violations[0]
    assert distance_bfs(v.u, v.v) == v.distance <= 10


def test_single_coset_search_l8():
    best = search_lattice(8, 40)
    assert best is not None
    assert best.det == 38
    assert verify_lattice(best).valid
    # even translations move cells even distances, so parity forces the
    # single-coset optimum above the true span of 33
    assert best.det > 33
    # determinism
    again = search_lattice(8, 40)
    assert again.basis == best.basis


def test_search_lattice_none_when_bound_too_small():
    assert search_lattice(8, 20) is None


def test_search_periodic_exact_span_l8():
    res = search_periodic(8)
    assert res.mode == "multi-domain"
    coloring = res.coloring
    assert coloring is not None
    assert coloring.color_count == 33
    assert verify_lattice(coloring).valid
    window = materialize_window(coloring, 24)
    assert verify_window(window).valid
    # file round trip preserves the multi-domain assignment and verdict
    back = read_coloring(write_coloring(coloring))
    assert isinstance(back, LatticeColoring)
    assert back.mode == "multi-domain"
    assert back.assignment == coloring.assignment
    assert verify_lattice(back).valid


def test_search_periodic_colors_is_an_upper_bound():
    # a budget above the span of l = 8 is met with the 33 colors DSATUR uses
    res = search_periodic(8, colors=34)
    coloring = res.coloring
    assert res.target == 34 and coloring is not None
    assert coloring.color_count <= 34
    assert verify_lattice(coloring).valid
    # below l = 8 no span is known, so any count up to the target succeeds
    small = search_periodic(4, colors=12).coloring
    assert small.color_count <= 12 and verify_lattice(small).valid


def test_search_periodic_refuses_fewer_colors_than_the_span(monkeypatch):
    # a one-color quotient at l = 8 would contradict the span of 33
    monkeypatch.setattr("hexspan.coloring.solve_coloring",
                        lambda adj, budget, max_nodes=None: [0] * len(adj))
    with pytest.raises(AssertionError, match="below the span"):
        search_periodic(8, max_det=66)


def test_lattice_mode_follows_the_colors():
    assert single_coset_coloring(4, ((6, 6), (6, -6))).mode == "single-coset"
    two = LatticeColoring(4, ((2, 0), (0, 2)), {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    assert two.mode == "multi-domain"


def test_search_periodic_mode_follows_the_coloring():
    # the multi-domain loop finds this det-16 coloring, one color per coset
    res = search_periodic(5, colors=16)
    assert res.coloring.det == res.coloring.color_count == 16
    assert res.mode == res.coloring.mode == "single-coset"


def test_exact_window_feasibility_boundary():
    # radius-1 ball: 4 cells, all within distance 2 of each other
    res_ok = exact_window_span(2, 1, 4)
    assert res_ok.feasible
    assert verify_window(res_ok.coloring).valid
    res_no = exact_window_span(2, 1, 3)
    assert not res_no.feasible


def test_exact_window_clique_lower_bounds():
    for p in (1, 2, 3):
        size = 1 + 3 * p * (p + 1) // 2
        assert not exact_window_span(2 * p, p, size - 1).feasible
    for p in (1, 2):
        size = 1 + 3 * p * (p + 1) // 2
        assert exact_window_span(2 * p, p, size).feasible


def test_exact_window_guard_refuses():
    # radius 12 holds 235 cells, past the default guard of 200
    with pytest.raises(ResourceGuard):
        exact_window_span(4, 12, 50, guard=200)


def test_exact_window_monotone_radius():
    # larger windows never report smaller spans
    def chi(radius):
        b = 1
        while not exact_window_span(4, radius, b).feasible:
            b += 1
        return b

    assert chi(2) <= chi(3)


def test_exact_window_l4_regression_values():
    # frozen solver outputs, not quoted values: the radius-2 ball is a
    # 10-clique under l=4, and wider windows force one extra color
    assert not exact_window_span(4, 3, 10).feasible
    assert exact_window_span(4, 3, 11).feasible
    assert not exact_window_span(4, 4, 10).feasible
    res = exact_window_span(4, 4, 11)
    assert res.feasible
    assert verify_window(res.coloring).valid


def test_verify_window_detects_single_mutation():
    base = exact_window_span(4, 3, 19).coloring
    assert base is not None and verify_window(base).valid
    cells = sorted(base.assignment)
    u = cells[0]
    # recolor u with a color used within distance 4
    victim = next(v for v in cells
                  if v != u and 0 < distance_closed(u, v) <= 4)
    mutated = dict(base.assignment)
    mutated[u] = base.assignment[victim]
    result = verify_window(WindowColoring(4, mutated))
    assert not result.valid
    pairs = {frozenset((viol.u, viol.v)) for viol in result.violations}
    assert frozenset((u, victim)) in pairs
    # every reported violation involves the mutated cell and is genuine
    for viol in result.violations:
        assert u in (viol.u, viol.v)
        assert distance_bfs(viol.u, viol.v) <= 4


def test_materialized_lattice_window_is_valid():
    coloring = single_coset_coloring(6, ((8, 8), (8, -8)))
    window = materialize_window(coloring, 18)
    assert verify_window(window).valid


def test_coloring_file_round_trip_lattice():
    coloring = single_coset_coloring(4, ((6, 6), (6, -6)))
    text = write_coloring(coloring)
    back = read_coloring(text)
    assert isinstance(back, LatticeColoring)
    assert back.l == 4 and back.basis == coloring.basis
    assert back.assignment == coloring.assignment
    assert write_coloring(back) == text


def test_coloring_file_round_trip_window():
    window = WindowColoring(3, {v: 1 + i for i, v in enumerate(ball((0, 0), 2))})
    text = write_coloring(window)
    back = read_coloring(text)
    assert isinstance(back, WindowColoring)
    assert back.assignment == window.assignment
    assert write_coloring(back) == text


def test_coloring_file_comments_and_blank_lines():
    text = "# leading comment\nhexcolor v1\n\nl 3\nwindow\ncell 0 0 1 # trailing\n"
    back = read_coloring(text)
    assert back.assignment == {(0, 0): 1}


@pytest.mark.parametrize("text,line", [
    ("hexcolor v2\n", 1),
    ("hexcolor v1\nl 3\nwindow\ncell 0 0 one\n", 4),
    ("hexcolor v1\nl 3\nwindow\ncell 0 0 1\ncell 0 0 2\n", 5),
    ("hexcolor v1\nl 3\nlattice 1 0 0 1\ncell 0 0 1\n", 1),
    ("hexcolor v1\nwindow\ncell 0 0 1\n", 1),
    ("hexcolor v1\nl 3\norbit\n", 3),
])
def test_coloring_file_errors_carry_line_numbers(text, line):
    with pytest.raises(ColoringFormatError) as err:
        read_coloring(text)
    assert err.value.line_no == line


def test_lattice_file_must_cover_domain():
    # the second domain has 10**10 cells: rejecting it must not list them
    for basis in ("4 4 4 -4", "100000 0 0 100000"):
        text = f"hexcolor v1\nl 2\nlattice {basis}\ncell 0 0 1\n"
        with pytest.raises(ColoringFormatError, match="do not cover"):
            read_coloring(text)
