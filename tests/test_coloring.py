import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexspan import coloring as coloring_module
from hexspan.coloring import (
    ColoringFormatError,
    LatticeColoring,
    VerifyResult,
    Violation,
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
from hexspan.errors import InputError, ResourceGuard
from hexspan.grid import distance_bfs, distance_closed, translate
from hexspan.reuse import compatibility_masks
from hexspan.rings import ball

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


def _box_scan_separation_ok(basis, l):
    # the separation filter as it was written before it read the orbit
    # table: every lattice vector of the box |i| <= l/2 + 1, |j| <= l
    geo = lattice_geometry(basis)
    for t in geo.points_in_box(l // 2 + 1, l):
        if t != (0, 0) and distance_closed((0, 0), t) <= l:
            return False
    return True


def test_separation_matches_the_box_scan():
    for det, basis in even_sublattices(200):
        for l in range(1, 17):
            assert _separation_ok(basis, l) == _box_scan_separation_ok(basis, l), (l, basis)


def _box_walk_verify_lattice(coloring):
    # verify_lattice as it was written before it read the orbit table:
    # two hand-sized boxes of lattice vectors and the closed form
    l = coloring.l
    geo = coloring.geometry
    violations = []
    checked = 0
    lam_self = [t for t in geo.points_in_box(2 * l + 2, 2 * l + 2) if t != (0, 0)]
    for rep in ((0, 0), (1, 0)):
        for t in lam_self:
            checked += 1
            d = distance_closed(rep, translate(rep, t))
            if d <= l:
                color = coloring.color_of(rep)
                violations.append(Violation(rep, translate(rep, t), d, color))
                if len(violations) >= 100:
                    return VerifyResult(False, violations, checked)
    cells = geo.cells()
    if set(coloring.assignment) != set(cells):
        raise InputError("assignment does not cover the fundamental domain exactly")
    by_color = {}
    for cell, color in coloring.assignment.items():
        by_color.setdefault(color, []).append(cell)
    lam_cross = geo.points_in_box(geo.a + l + 2, geo.d + geo.b + l + 2)
    for color, cells_of in by_color.items():
        cells_of = sorted(cells_of)
        for a in range(len(cells_of)):
            for b in range(a + 1, len(cells_of)):
                u, v = cells_of[a], cells_of[b]
                checked += 1
                for t in lam_cross:
                    d = distance_closed(u, translate(v, t))
                    if d <= l:
                        violations.append(Violation(u, translate(v, t), d, color))
                        break
                if len(violations) >= 100:
                    return VerifyResult(False, violations, checked)
    return VerifyResult(not violations, violations, checked)


def _pairwise_verify_window(coloring):
    # verify_window as it was written before it went offset by offset over
    # numpy arrays: every cell against every offset of the candidate box
    l = coloring.l
    cells = sorted(coloring.assignment)
    index = set(cells)
    violations: list[Violation] = []
    checked = 0
    # candidate offsets: |di| <= l//2 + 1 and |dj| <= l covers d <= l
    offsets = [(di, dj)
               for di in range(-(l // 2) - 1, l // 2 + 2)
               for dj in range(-l, l + 1)
               if (di, dj) != (0, 0)]
    for u in cells:
        cu = coloring.assignment[u]
        for off in offsets:
            v = translate(u, off)
            if v <= u or v not in index:
                continue
            checked += 1
            if coloring.assignment[v] == cu and distance_closed(u, v) <= l:
                violations.append(Violation(u, v, distance_closed(u, v), cu))
                if len(violations) >= 1000:
                    return VerifyResult(False, violations, checked)
    return VerifyResult(not violations, violations, checked)


@lru_cache(maxsize=None)
def _searched(l):
    return search_periodic(l)


@pytest.mark.parametrize("l, tried, basis, det, colors", [
    (8, 163, ((7, -5), (33, -33)), 66, 33),
    (10, 317, ((18, -16), (48, -48)), 96, 48),
    (12, 653, ((10, -8), (67, -67)), 134, 67),
])
def test_search_periodic_results_pinned(l, tried, basis, det, colors):
    res = _searched(l)
    assert res.lattices_tried == tried
    assert res.coloring.basis == basis
    assert res.coloring.det == det and res.coloring.color_count == colors


def _clashing_pairs(coloring, result):
    # unordered pairs of distinct domain cells named by the violations
    canonical = coloring.geometry.canonical
    pairs = {frozenset((canonical(v.u), canonical(v.v))) for v in result.violations}
    return {pair for pair in pairs if len(pair) == 2}


def _assert_matches_the_box_walk(coloring, result):
    reference = _box_walk_verify_lattice(coloring)
    assert result.valid == reference.valid == (not result.violations)
    if len(result.violations) < 100 and len(reference.violations) < 100:
        assert _clashing_pairs(coloring, result) == _clashing_pairs(coloring, reference)
    for viol in result.violations:
        assert viol.u != viol.v
        assert coloring.color_of(viol.u) == coloring.color_of(viol.v) == viol.color
        assert distance_bfs(viol.u, viol.v) == viol.distance <= coloring.l


VERIFY_LATTICES = [basis for _, basis in even_sublattices(80)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_lattice_matches_the_box_walk(data):
    # single-coset lattices and the search results, with colors merged,
    # checked in blocks of one row, a few rows and all rows
    if data.draw(st.booleans()):
        base = single_coset_coloring(data.draw(st.integers(2, 12)),
                                     data.draw(st.sampled_from(VERIFY_LATTICES)))
    else:
        base = _searched(data.draw(st.sampled_from([8, 10, 12]))).coloring
    palette = sorted(set(base.assignment.values()))
    assignment = dict(base.assignment)
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(palette),
                                             st.sampled_from(palette)), max_size=3)):
        assignment = {cell: b if c == a else c for cell, c in assignment.items()}
    mutant = LatticeColoring(base.l, base.basis, assignment)
    with mock.patch.object(coloring_module, "_BLOCK_LOOKUPS",
                           data.draw(st.sampled_from([1, 500, 1 << 14]))):
        result = verify_lattice(mutant)
    _assert_matches_the_box_walk(mutant, result)


def test_repeated_colors_at_large_l_verify_in_bounded_memory():
    # the valid single-coset coloring of ((42, 42), (42, -42)) at l = 40,
    # written over its index-2 sublattice, so that every color repeats
    base = single_coset_coloring(40, ((42, 42), (42, -42)))
    basis = ((84, 84), (42, -42))
    cells = lattice_geometry(basis).cells()
    coloring = LatticeColoring(40, basis, {c: base.color_of(c) for c in cells})
    assert coloring.det == 2 * base.det == 2 * coloring.color_count
    start = time.perf_counter()
    assert verify_lattice(coloring).valid
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        assert verify_lattice(coloring).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    # one recolored cell clashes with a cell of its new color
    u, donor = (5, 7), (5, 12)
    broken = LatticeColoring(40, basis, {**coloring.assignment,
                                         u: coloring.color_of(donor)})
    result = verify_lattice(broken)
    assert not result.valid
    _assert_matches_the_box_walk(broken, result)


def test_verify_lattice_refuses_l_past_the_bfs_limit():
    coloring = single_coset_coloring(1001, ((2, 0), (0, 2)))
    with pytest.raises(ResourceGuard, match="BFS oracle limit of 1000"):
        verify_lattice(coloring)
    # coverage is checked before any lookup
    partial = LatticeColoring(1001, ((2, 0), (0, 2)), {(0, 0): 1})
    with pytest.raises(InputError, match="does not cover"):
        verify_lattice(partial)


def test_verify_lattice_refusal_survives_optimize_flag():
    # python -O strips assert statements; the refusal must be a real raise
    code = (
        "from hexspan.coloring import single_coset_coloring, verify_lattice\n"
        "from hexspan.errors import ResourceGuard\n"
        "try:\n"
        "    verify_lattice(single_coset_coloring(1001, ((2, 0), (0, 2))))\n"
        "except ResourceGuard as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('l = 1001 was swept')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "BFS oracle limit" in proc.stdout


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


@st.composite
def _windows(draw):
    # windows cut from periodic colorings with colors merged, sparse
    # clusters up to 10**30 apart, and monochrome balls
    l = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["lattice", "sparse", "monochrome"]))
    if kind == "lattice":
        base = single_coset_coloring(l, draw(st.sampled_from(VERIFY_LATTICES)))
        assignment = materialize_window(base, draw(st.integers(0, 12))).assignment
        palette = sorted(set(assignment.values()))
        for a, b in draw(st.lists(st.tuples(st.sampled_from(palette),
                                             st.sampled_from(palette)), max_size=3)):
            assignment = {cell: b if c == a else c for cell, c in assignment.items()}
    elif kind == "sparse":
        spread = 10 ** draw(st.integers(0, 30))
        assignment = {}
        for _ in range(draw(st.integers(1, 5))):
            ci, cj = (draw(st.integers(-spread, spread)) for _ in range(2))
            near = st.tuples(st.integers(-l, l), st.integers(-2 * l, 2 * l))
            assignment.update({(ci + i, cj + j): c for (i, j), c in draw(
                st.dictionaries(near, st.integers(1, 3), min_size=1, max_size=40)).items()})
    else:
        centre = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
        assignment = dict.fromkeys(ball(centre, draw(st.integers(0, 12))), 1)
    return WindowColoring(l, assignment)


@settings(max_examples=200, deadline=None)
@given(_windows())
@example(WindowColoring(4, dict.fromkeys(ball((0, 0), 12), 1)))  # past the 1000 cap
def test_verify_window_matches_the_pairwise_loop(window):
    assert verify_window(window).to_dict() == _pairwise_verify_window(window).to_dict()


def test_verify_window_at_the_bfs_limit():
    # three cells 1000 apart that span the l = 1000 box, and one far away:
    # only offsets that occur between window cells are tried, not the
    # million of the box
    cells = [(0, 0), (0, 1000), (500, 500), (10 ** 30, 1)]
    start = time.perf_counter()
    result = verify_window(WindowColoring(1000, dict.fromkeys(cells, 1)))
    assert time.perf_counter() - start < 1.0
    assert result.checked == 3
    assert [(v.u, v.v, v.distance) for v in result.violations] == [
        ((0, 0), (0, 1000), 1000), ((0, 0), (500, 500), 1000), ((0, 1000), (500, 500), 1000)]
    with pytest.raises(ResourceGuard, match="BFS oracle limit of 1000"):
        verify_window(WindowColoring(1001, {(0, 0): 1}))


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


kind_lines = st.one_of(st.just("window"), st.builds(
    "lattice {} {} {} {}".format, *[st.integers(-3, 3)] * 4))
cell_lines = st.builds("cell {} {} {}".format, st.integers(-2, 2), st.integers(-2, 2),
                       st.integers(0, 3))
coloring_lines = st.one_of(
    kind_lines,
    cell_lines,
    st.builds("l {}".format, st.integers(-2, 12)),
    st.lists(st.sampled_from(["hexcolor", "v1", "l", "lattice", "window", "cell",
                              "#", "0", "1", "-1", "x", "10" * 2000]),
             max_size=6).map(" ".join),
    st.text(max_size=20),
)


@given(st.one_of(
    st.text(),
    st.lists(coloring_lines, max_size=12).map(
        lambda lines: "\n".join(["hexcolor v1", *lines])),
    st.tuples(st.integers(0, 9), kind_lines, st.lists(cell_lines, max_size=8)).map(
        lambda t: "\n".join(["hexcolor v1", f"l {t[0]}", t[1], *t[2]]))))
def test_read_coloring_rejects_only_with_format_errors(text):
    try:
        coloring = read_coloring(text)
    except ColoringFormatError:
        return
    assert write_coloring(read_coloring(write_coloring(coloring))) == write_coloring(coloring)


def test_read_coloring_huge_lattice_entries():
    # Euclid on 1200-digit entries takes thousands of steps
    a, b = 10 ** 1200 + 2, 7 ** 1420 + 1
    text = f"hexcolor v1\nl 2\nlattice {a} 0 {b} 2\ncell 0 0 1\n"
    with pytest.raises(ColoringFormatError, match="do not cover"):
        read_coloring(text)


SMALL_LATTICES = [basis for _, basis in even_sublattices(40)]


@given(st.sampled_from(SMALL_LATTICES), st.integers(1, 12), st.data())
def test_lattice_file_write_read_write_is_a_fixed_point(basis, l, data):
    cells = lattice_geometry(basis).cells()
    colors = data.draw(st.lists(st.integers(1, 60), min_size=len(cells),
                                max_size=len(cells)))
    text = write_coloring(LatticeColoring(l, basis, dict(zip(cells, colors))))
    assert write_coloring(read_coloring(text)) == text


@given(st.integers(1, 12),
       st.dictionaries(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                       st.integers(1, 10 ** 6), min_size=1, max_size=60))
def test_window_file_write_read_write_is_a_fixed_point(l, assignment):
    text = write_coloring(WindowColoring(l, assignment))
    back = read_coloring(text)
    assert isinstance(back, WindowColoring)
    assert write_coloring(back) == text
