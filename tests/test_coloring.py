import hashlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from itertools import groupby, islice
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexspan import coloring as coloring_module
from hexspan.coloring import (
    ColoringFormatError,
    LatticeColoring,
    VerifyResult,
    Violation,
    WindowColoring,
    _MIRROR,
    _POINT_GROUP,
    _ROTATE,
    _admissible,
    _image,
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
from hexspan.grid import distance_bfs, distance_closed, neighbors, translate
from hexspan.reuse import compatibility_masks
from hexspan.rings import ball
from hexspan.solver import greedy_clique
from hexspan.spans import span_even

even_vectors = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
    lambda t: t if (t[0] + t[1]) % 2 == 0 else (t[0], t[1] + 1)
)


@given(even_vectors, st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 3)]))
def test_translation_distance_matches_bfs(t, v):
    # an even translation moves every cell by d((0, 0), t), the grid norm
    # N(t) that _separation_ok minimises over the lattice
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


huge_ints = st.integers(-10 ** 30, 10 ** 30)


@given(st.tuples(st.tuples(huge_ints, huge_ints), st.tuples(huge_ints, huge_ints)))
@example(((-2, 4), (0, 6)))  # Euclid ends with x_i < 0: b is -4 mod 6 = 2
@settings(max_examples=300)
def test_lattice_geometry_is_the_normal_form_by_definition(basis):
    # checked against the definition, not against _orbit_keys, which runs
    # the same Euclid: (a, b) and (0, d) with a, d > 0 and 0 <= b < d span
    # a lattice of det a*d that holds both basis vectors (canonical sends
    # them to the origin), so a*d = |det| makes it the basis's lattice;
    # both vector orders and both signs give that one normal form
    (p1, q1), (p2, q2) = basis
    det = p1 * q2 - p2 * q1
    assume(det != 0)
    t1, t2, m1, m2 = (p1, q1), (p2, q2), (-p1, -q1), (-p2, -q2)
    forms = [(t1, t2), (t2, t1), (m1, t2), (t2, m1), (t1, m2), (m2, t1), (m1, m2), (m2, m1)]
    geo = lattice_geometry(basis)
    assert {lattice_geometry(form) for form in forms} == {geo}
    assert geo.a > 0 and geo.d > 0 and 0 <= geo.b < geo.d
    assert geo.a * geo.d == geo.det == abs(det)
    assert geo.canonical(t1) == geo.canonical(t2) == (0, 0)


def _triple_loop_sublattices(max_det, min_det=0):
    # even_sublattices as it was written before it enumerated arrays: one
    # basis at a time, n = det/2, then each divisor a of n, then c < n/a
    for n in range(max(1, (min_det + 1) // 2), max_det // 2 + 1):
        for a in (k for k in range(1, n + 1) if n % k == 0):
            d = n // a
            for c in range(d):
                yield 2 * n, ((a + c, a - c), (d, -d))


def test_array_enumeration_matches_the_triple_loop():
    for max_det, min_det in ((300, 0), (300, 133), (301, 134), (90, 90), (2, 0), (1, 0),
                             (0, 0), (-4, 0), (40, 60)):
        assert (list(even_sublattices(max_det, min_det))
                == list(_triple_loop_sublattices(max_det, min_det))), (max_det, min_det)
    # every entry is a Python int, so bases print as they always have
    det, basis = next(even_sublattices(4, 4))
    assert type(det) is int and {type(x) for t in basis for x in t} == {int}
    assert f"{basis}" == "((1, 1), (2, -2))"


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


def test_even_sublattices_start_at_the_least_determinant(monkeypatch):
    full = list(even_sublattices(90))
    for least in (0, 1, 33, 34, 35, 90, 91):
        assert list(even_sublattices(90, least)) == [x for x in full if x[0] >= least]
    # determinants below the least one are not enumerated at all: in blocks
    # of one determinant, the first block is det 34's, and the blocks hold
    # dets 34..90, one each
    monkeypatch.setattr(coloring_module, "_BLOCK_ENTRIES", 1)
    blocks = list(coloring_module._sublattice_blocks(90, 33))
    assert [set(dets.tolist()) for dets, _ in blocks] == [{2 * n} for n in range(17, 46)]
    assert [len(entries) for _, entries in blocks] == [sum(n // a for a in range(1, n + 1)
                                                           if n % a == 0)
                                                       for n in range(17, 46)]


def test_each_enumeration_block_is_filtered_in_one_call(monkeypatch):
    expected = _searched(8).log
    calls = []
    separation_ok = coloring_module._separation_ok
    monkeypatch.setattr(coloring_module, "_separation_ok",
                        lambda bases, l: calls.append(bases) or separation_ok(bases, l))
    assert search_periodic(8).log == expected
    # dets 34..90, up to the default bound 2 * 33 + 24, fit one block of
    # 1,466 bases, decided in one call as a (1466, 4) array in
    # even_sublattices order; the success is the 644th of them
    assert len(calls) == 1
    assert calls[0].shape == (1466, 4)
    assert calls[0].tolist() == [[*t1, *t2] for det, (t1, t2) in even_sublattices(90, 34)]
    # in blocks of one determinant, one call per det up to the success's
    calls.clear()
    monkeypatch.setattr(coloring_module, "_BLOCK_ENTRIES", 1)
    assert search_periodic(8).log == expected
    assert [len(bases) for bases in calls] == [len(list(even_sublattices(det, det)))
                                               for det in range(34, 67, 2)]


def test_lattice_searches_refuse_a_determinant_past_the_limit(monkeypatch):
    monkeypatch.setattr(coloring_module, "_sublattice_blocks", None)  # never reached
    for search in (lambda: search_periodic(8, colors=10 ** 9),
                   lambda: search_periodic(8, max_det=2001),
                   lambda: search_lattice(8, 2001)):
        with pytest.raises(ResourceGuard, match="exceed the limit of 2000"):
            search()


def test_lattice_searches_filter_every_basis_up_to_the_determinant_limit():
    # the filter's cost does not grow with l: all 823,081 bases up to det
    # 2000 are decided at l = 100 and l = 1000 alike, well within 2 s, and
    # none passes (by Minkowski's packing bound, a lattice separated at even
    # l has det >= 3(l + 2)**2 / 8, so search_lattice itself starts past 2000)
    for search in (lambda: next(_admissible(100, 0, 2000), None),
                   lambda: next(_admissible(1000, 0, 2000), None),
                   lambda: search_periodic(104, colors=1000, max_det=2000).coloring):
        start = time.perf_counter()
        assert search() is None
        assert time.perf_counter() - start < 2.0
    assert search_lattice(1000, -2000) is None  # no bases at all
    # l is refused past the BFS oracle's limit before any lattice is built
    with pytest.raises(ResourceGuard, match="l 1001 exceeds the BFS oracle limit of 1000"):
        next(_admissible(1001, 0, 2))


def _plain_graph(n, related):
    adj = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and related(a, b):
                adj[a] |= 1 << b
    return adj


def _pair_scan_quotient(geo, l):
    # the quotient graph pair by pair over a box of lattice vectors, with
    # no numpy, no ball and no bitmask_graph.  The even translation s that
    # takes u to (h, 0), h its handedness, keeps distances, so u and v
    # conflict iff (h, 0) comes within l of the orbit of v - s: one scan of
    # the box per handedness and orbit
    cells = geo.cells()
    lam = geo.points_in_box(geo.a + l + 2, geo.d + geo.b + l + 2)

    @lru_cache(maxsize=None)
    def near(h, w):
        return any(distance_closed((h, 0), translate(w, t)) <= l for t in lam)

    def related(a, b):
        (x, y), (p, q) = cells[a], cells[b]
        h = (x + y) % 2
        return near(h, geo.canonical((p - x + h, q - y)))

    return _plain_graph(len(cells), related)


def test_conflict_graphs_match_plain_pair_scans(monkeypatch):
    # the admissible lattices below det 22 (l = 4) and det 66 (l = 8) give
    # complete graphs, so both ends are sampled
    cases = []
    for l, min_det in ((4, 0), (4, 22), (6, 0), (8, 0), (8, 66), (10, 96)):
        admissible = (basis for det, basis, _, _ in _admissible(l, min_det, 200))
        cases += [(l, basis) for basis in islice(admissible, 3)]
    # thin domains where every ball wraps its orbits many times: one column
    # (a = 1) and strips two rows high (d = 2); the conflict rule does not
    # need an admissible lattice
    cases += [(10, ((1, 1), (0, 24))), (10, ((12, 0), (0, 2))), (6, ((11, 1), (0, 2)))]
    for l, basis in cases:
        geo = lattice_geometry(basis)
        expected = _pair_scan_quotient(geo, l)
        assert quotient_conflicts(geo, l) == expected, (l, basis)
        # one row per block: every block boundary, both handednesses
        with monkeypatch.context() as m:
            m.setattr(coloring_module, "_BLOCK_ENTRIES", 1)
            assert quotient_conflicts(geo, l) == expected, (l, basis)
    cells = ball((0, 0), 5)
    n = len(cells)
    assert window_conflicts(cells, 4) == _plain_graph(
        n, lambda a, b: distance_closed(cells[a], cells[b]) <= 4)
    assert compatibility_masks(cells, 5) == _plain_graph(
        n, lambda a, b: distance_closed(cells[a], cells[b]) >= 5)


def test_quotient_conflicts_match_the_pair_scan_on_sparse_quotients():
    # quotient_conflicts, read from the orbit table, against the pair-scan
    # reference on sparse quotients at small l up to det 120, admissible or
    # not
    for l in (4, 6):
        for det, basis in islice(even_sublattices(120), 0, None, 9):
            geo = lattice_geometry(basis)
            assert quotient_conflicts(geo, l) == _pair_scan_quotient(geo, l), (l, basis)


def _box_scan_separation_ok(basis, l):
    # the separation filter as it was written before it read the orbit
    # table: every lattice vector of the box |i| <= l/2 + 1, |j| <= l
    geo = lattice_geometry(basis)
    for t in geo.points_in_box(l // 2 + 1, l):
        if t != (0, 0) and distance_closed((0, 0), t) <= l:
            return False
    return True


def _admits(basis, l):
    return bool(_separation_ok([basis], l)[0])


def test_separation_matches_the_box_scan():
    # every basis of det <= 200, decided one determinant per call, as the
    # searches call it
    groups = [[basis for _, basis in group]
              for _, group in groupby(even_sublattices(200), key=itemgetter(0))]
    for l in range(1, 17):
        for bases in groups:
            verdicts = _separation_ok(bases, l)
            assert verdicts.dtype == bool and len(verdicts) == len(bases)
            assert verdicts.tolist() == [_box_scan_separation_ok(b, l) for b in bases], l


def test_separation_verdicts_do_not_depend_on_the_block_size(monkeypatch):
    # the enumeration in blocks of one determinant (a block size of 1, 4 or
    # 7; 4 holds dets 2 and 4 exactly), of several (945), and of all of
    # them at once (2**20): the same bases in the same order, and the same
    # search
    expected = list(even_sublattices(200))
    log = _searched(8).log
    sizes = {det: len(list(group)) for det, group in groupby(expected, key=itemgetter(0))}
    for block, count in ((1, 100), (4, 99), (7, 99), (945, 10), (1 << 20, 1)):
        monkeypatch.setattr(coloring_module, "_BLOCK_ENTRIES", block)
        blocks = [dets.tolist() for dets, _ in coloring_module._sublattice_blocks(200)]
        # whole determinants, as many as fit, and one alone when it does not
        assert len(blocks) == count
        assert all(len(b) <= block or len(set(b)) == 1 for b in blocks)
        assert all(x[-1] < y[0] and len(x) + sizes[y[0]] > block
                   for x, y in zip(blocks, blocks[1:]))
        assert list(even_sublattices(200)) == expected, block
        assert search_periodic(8).log == log, block
    assert _separation_ok([], 12).shape == (0,)
    assert _separation_ok(np.zeros((0, 4), dtype=np.int64), 12).shape == (0,)


def test_the_grid_norm_is_the_distance_of_even_translations():
    # N(t) = distance_closed((0, 0), t) for every even t in a box, and the
    # BFS oracle's distance from both handednesses on a window
    i, j = np.meshgrid(np.arange(-40, 41), np.arange(-60, 61), indexing="ij")
    even = (i + j) % 2 == 0
    norms = coloring_module._grid_norm(i[even], j[even])
    assert norms.tolist() == [distance_closed((0, 0), (int(a), int(b)))
                              for a, b in zip(i[even], j[even])]
    assert (norms % 2 == 0).all()
    for t in ((a, b) for a in range(-6, 7) for b in range(-9, 10) if (a + b) % 2 == 0):
        n = int(coloring_module._grid_norm(*t))
        assert n == distance_bfs((0, 0), t) == distance_bfs((1, 0), translate((1, 0), t)), t


def _q(t):
    return 3 * t[0] ** 2 + t[1] ** 2


def test_the_reduction_form_is_invariant_under_the_point_group():
    # Q(i, j) = 3i^2 + j^2 is kept by all 12 maps, and 3/4 N^2 <= Q <= N^2
    for t in ((i, j) for i in range(-15, 16) for j in range(-15, 16) if (i + j) % 2 == 0):
        assert {_q(_image(g, t)) for g in _POINT_GROUP} == {_q(t)}, t
        n = int(coloring_module._grid_norm(*t))
        assert 3 * n * n <= 4 * _q(t) <= 4 * n * n, t


def _orbit(basis):
    # the normal forms of the lattice's images under the point group, as
    # search_periodic once stored them, 12 per rejection
    return {lattice_geometry((_image(g, basis[0]), _image(g, basis[1]))) for g in _POINT_GROUP}


@pytest.mark.parametrize("l", [4, 8, 12])
def test_orbit_keys_name_point_group_orbits(l):
    # every admissible lattice up to det 150: its geometry is its normal
    # form, and two lattices share a key iff one is the other's image
    lattices = list(_admissible(l, 0, 150))
    assert len({key for *_, key in lattices}) > 1
    for det, basis, geo, key in lattices:
        assert geo == lattice_geometry(basis) and geo.det == det
    for det, group in groupby(lattices, key=itemgetter(0)):
        group = list(group)
        orbits = [_orbit(basis) for _, basis, _, _ in group]
        for (_, _, geo, key), orbit in zip(group, orbits):
            assert geo in orbit
            assert {other for _, _, other, k in group if k == key} == {
                other for _, _, other, _ in group if other in orbit}, (l, geo)


wide_even_vectors = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda t: (t[0] + t[1]) % 2 == 0)


@given(wide_even_vectors, wide_even_vectors, st.integers(1, 16))
@example((2, 0), (1, 1), 1)
@example((30, -30), (-29, 27), 16)
@settings(max_examples=300, deadline=None)
def test_separation_matches_the_box_scan_on_any_basis(t1, t2, l):
    # bases far from normal form: the reduction finds the lattice's shortest
    # vector from any basis, so both orders and both orientations of one
    # lattice get the box scan's verdict, decided here in one call
    (p1, q1), (p2, q2) = t1, t2
    assume(p1 * q2 - p2 * q1 != 0)
    forms = [(t1, t2), (t2, t1), (t1, (-p2, -q2)), (t2, (-p1, -q1))]
    assert _separation_ok(forms, l).tolist() == [_box_scan_separation_ok((t1, t2), l)] * 4


def test_separation_refuses_a_degenerate_basis():
    # the determinant is checked before any reduction step, so numpy never
    # divides by zero, whatever its error settings
    good = ((7, -5), (33, -33))
    for degenerate in (((2, 0), (4, 0)), ((1, 1), (-3, -3)), ((0, 0), (2, 0))):
        message = re.escape(f"degenerate lattice basis {degenerate}")
        with np.errstate(all="raise"), pytest.raises(InputError, match=message):
            _separation_ok([good, degenerate, good], 8)
        with pytest.raises(InputError, match=message):
            lattice_geometry(degenerate)
        # rows (p1, q1, p2, q2), as the enumeration hands them over
        rows = np.array([[*t1, *t2] for t1, t2 in (good, degenerate)])
        with pytest.raises(InputError, match=message):
            _separation_ok(rows, 8)
    assert _separation_ok([good], 8).tolist() == [True]


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
def _searched_and_graphs(l):
    # search_periodic(l), how many quotient graphs it built, and how many
    # of them met the greedy clique
    built, cliques = [], []

    def counting(geo, l_):
        built.append(geo)
        return quotient_conflicts(geo, l_)

    def clique_counting(adj, *, exceed=None):
        cliques.append(adj)
        return greedy_clique(adj, exceed=exceed)

    with mock.patch.object(coloring_module, "quotient_conflicts", counting), \
            mock.patch.object(coloring_module, "greedy_clique", clique_counting):
        return search_periodic(l), len(built), len(cliques)


def _searched(l):
    return _searched_and_graphs(l)[0]


def _rule_basis(l):
    # the closed-form lattice of even l: t1 = (1 + c, 1 - c), t2 = (S, -S),
    # S the span, c = 3l/4 for l = 0 mod 4 and 3l/2 + 2 for l = 2 mod 4
    s = span_even(l).span
    c = 3 * l // 4 if l % 4 == 0 else 3 * l // 2 + 2
    return ((1 + c, 1 - c), (s, -s))


def _assert_search_pinned(l, tried, basis, det, colors):
    res = _searched(l)
    assert res.lattices_tried == tried
    assert res.coloring.basis == basis == _rule_basis(l)
    assert res.coloring.det == det == 2 * colors
    assert res.coloring.color_count == colors == span_even(l).span
    assert verify_lattice(res.coloring).valid


@pytest.mark.parametrize("l, tried, basis, det, colors", [
    (8, 163, ((7, -5), (33, -33)), 66, 33),
    (10, 317, ((18, -16), (48, -48)), 96, 48),
    (12, 653, ((10, -8), (67, -67)), 134, 67),
    # 88 = span_even(14).span; t1 = (1 + c, 1 - c) with c = 3l/2 + 2 = 23
    (14, 1073, ((24, -22), (88, -88)), 176, 88),
    (16, 1812, ((13, -11), (113, -113)), 226, 113),
    (18, 2681, ((30, -28), (140, -140)), 280, 140),
    (20, 4073, ((16, -14), (171, -171)), 342, 171),
    (22, 5652, ((36, -34), (204, -204)), 408, 204),
    (24, 8046, ((19, -17), (241, -241)), 482, 241),
])
def test_search_periodic_results_pinned(l, tried, basis, det, colors):
    _assert_search_pinned(l, tried, basis, det, colors)


@pytest.mark.slow
@pytest.mark.parametrize("l, tried", [
    (26, 10604), (28, 14196), (30, 18237), (32, 23521),
    (34, 29314), (36, 36832), (38, 44958), (40, 55105),
])
def test_search_periodic_results_pinned_up_to_l40(l, tried):
    s = span_even(l).span
    _assert_search_pinned(l, tried, _rule_basis(l), 2 * s, s)


@pytest.mark.parametrize("l", range(8, 25, 2))
def test_search_periodic_builds_one_quotient_graph(l):
    # every lattice rejected before the success has a complete quotient
    # graph, decided from one orbit row, and the others tried are images of
    # those under the point group: only the success's graph is built, and
    # its orbit row, one missed coset, sends it to DSATUR without the
    # greedy clique
    res, graphs, cliques = _searched_and_graphs(l)
    assert res.coloring is not None and graphs == 1 and cliques == 0


# sha256 of "\n".join(search_periodic(l).log): every lattice tried, in
# order, with its outcome and the basis each skip names
SEARCH_LOG_DIGESTS = {
    8: "5e3ccbf912e53887f9b23a7168c92bd1cdf6895569674868e1fe23fed70406a1",
    10: "63e41593b08f9dca9d564d3151478a45784cd418fabeff77fcf03ec20edc626d",
    12: "0484b7f8ae70dbdc53eb118431d6f9b7df2b2fad6150c6e82baed3a68858de47",
    14: "c34dc27f088657045b4c80bd7929130fb74b15dac93b15318217f0a013fc4764",
}


@pytest.mark.parametrize("l", sorted(SEARCH_LOG_DIGESTS))
def test_search_periodic_logs_pinned(l):
    text = "\n".join(_searched(l).log)
    assert len(_searched(l).log) == _searched(l).lattices_tried
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEARCH_LOG_DIGESTS[l]


def _tried_lattices(l):
    # the lattices search_periodic(l) tries, in its order, up to its success
    target = span_even(l).span
    admissible = (basis for det, basis, _, _ in _admissible(l, target, 2 * target + 24))
    return list(islice(admissible, _searched(l).lattices_tried))


def _is_complete(adj):
    full = (1 << len(adj)) - 1
    return all(row == full ^ (1 << u) for u, row in enumerate(adj))


def _assert_covering_is_completeness(geo, l):
    adj = quotient_conflicts(geo, l)
    complete = _is_complete(adj)
    missed = coloring_module._missed(geo, l).tolist()
    assert (not missed) == complete
    # (0, 0)'s non-neighbours are the missed cosets, and every vertex has
    # as many
    full = (1 << geo.det) - 1
    assert full ^ adj[0] == sum(1 << k for k in [0] + missed)
    assert all((full ^ row).bit_count() == len(missed) + 1 for row in adj)
    # the row of (0, 1), domain index 1, left-handed, agrees with (0, 0)'s
    row = coloring_module._orbit_index(geo, np.array([1]), coloring_module._ball_offsets(l)[1])
    assert (len(np.unique(row)) == geo.det) == complete
    if len(missed) == 1:
        # K_det minus a perfect matching: every greedy clique has det/2 cells
        half = geo.det // 2
        assert len(greedy_clique(adj)) == half
        assert all(len(greedy_clique(adj, exceed=t)) == half for t in range(half))
    return complete


def test_covering_row_decides_quotient_completeness():
    verdicts = set()
    for l in (8, 10, 12, 14):
        for basis in _tried_lattices(l):
            verdicts.add(_assert_covering_is_completeness(lattice_geometry(basis), l))
    # the success lattice is the one incomplete graph of each search
    assert verdicts == {True, False}
    for l in (2, 3, 4, 5, 6):
        verdicts = {_assert_covering_is_completeness(lattice_geometry(basis), l)
                    for det, basis in even_sublattices(120)}
        assert verdicts == {True, False}, l


def test_quotient_conflicts_refuses_a_lattice_with_odd_vectors():
    with pytest.raises(InputError, match="not a lattice of even translations"):
        quotient_conflicts(lattice_geometry(((1, 0), (0, 2))), 4)


def _lift(step, u):
    # the grid automorphism over the linear map R (_ROTATE) or M (_MIRROR)
    if (u[0] + u[1]) % 2 == 0:
        i, j = _image(step, u)
        return (i - 2, j - 1) if step == _ROTATE else (i - 2, j - 2)
    i, j = _image(step, (u[0] - 1, u[1]))
    return (i - 2, j) if step == _ROTATE else (i - 1, j - 2)


def _lifted_group():
    # {linear part: its lift}, the lifts composed word by word until closed
    def linear(phi):
        o = phi((0, 0))
        return tuple((phi(t)[0] - o[0], phi(t)[1] - o[1]) for t in ((1, 1), (1, -1)))

    found = {linear(lambda u: u): lambda u: u}
    frontier = list(found.values())
    while frontier:
        phi = frontier.pop()
        for step in (_ROTATE, _MIRROR):
            psi = (lambda s, f: lambda u: _lift(s, f(u)))(step, phi)
            if linear(psi) not in found:
                found[linear(psi)] = psi
                frontier.append(psi)
    return found


def test_rotation_and_mirror_lift_to_grid_automorphisms():
    patch = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]
    assert {(i + j) % 2 for i, j in patch} == {0, 1}
    for i, j in patch:
        if (i + j) % 2 == 0:
            assert _image(_ROTATE, (i, j)) == ((i - j) // 2, (3 * i + j) // 2)
            assert _image(_MIRROR, (i, j)) == (i, -j)
    for step in (_ROTATE, _MIRROR):
        for u in patch:
            assert {_lift(step, v) for v in neighbors(u)} == neighbors(_lift(step, u)), (step, u)
    group = _lifted_group()
    assert len(group) == len(set(_POINT_GROUP)) == 12
    assert set(group) == set(_POINT_GROUP)
    # each lift moves cells with its linear part: phi(u + t) = phi(u) + g(t)
    for g, phi in group.items():
        for u in patch[::7]:
            for t in ((2, 0), (1, 1), (3, -5)):
                assert phi(translate(u, t)) == translate(phi(u), _image(g, t))


def _sampled_lattices(l, count, seed):
    tried = _tried_lattices(l)
    return tried[:3] + random.Random(seed).sample(tried[3:-1], count) + tried[-1:]


@pytest.mark.parametrize("l", [8, 10])
def test_symmetric_lattices_have_isomorphic_quotient_graphs(l):
    group = _lifted_group()
    for basis in _sampled_lattices(l, 4, l):
        geo = lattice_geometry(basis)
        adj = quotient_conflicts(geo, l)
        for g, phi in group.items():
            image = (_image(g, basis[0]), _image(g, basis[1]))
            geo_g = lattice_geometry(image)
            assert _admits(image, l) and _admits(basis, l)
            # the lift maps domain cell u to the domain cell of phi(u)
            to = [x * geo_g.d + y for x, y in (geo_g.canonical(phi(u)) for u in geo.cells())]
            assert sorted(to) == list(range(geo.det))
            moved = [0] * geo.det
            for u, row in enumerate(adj):
                moved[to[u]] = sum(1 << to[v] for v in range(geo.det) if row >> v & 1)
            assert quotient_conflicts(geo_g, l) == moved, (l, basis, g)
    # the separation filter agrees on lattices it rejects too
    for det, basis in islice(even_sublattices(120), 0, None, 7):
        for g in _POINT_GROUP:
            image = (_image(g, basis[0]), _image(g, basis[1]))
            assert _admits(image, l) == _admits(basis, l), (l, basis, g)


def test_the_first_node_limit_ends_the_search(monkeypatch):
    # the first lattice to reach DSATUR, the search's own success lattice,
    # runs out of nodes: the search refuses there, with the limit of the
    # whole search, and tries no further lattice
    limits = []

    def out_of_nodes(adj, budget, max_nodes):
        limits.append(max_nodes)
        raise ResourceGuard(f"coloring search exceeded {max_nodes} nodes")

    monkeypatch.setattr(coloring_module, "solve_coloring", out_of_nodes)
    with pytest.raises(ResourceGuard) as refusal:
        search_periodic(8, max_det=66)
    assert str(refusal.value) == (
        "periodic search exceeded 5000000 nodes at det 66 basis ((7, -5), (33, -33))")
    assert limits == [5_000_000]


def test_an_exhaustive_refutation_covers_its_orbit_within_one_call(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(coloring_module, "solve_coloring", lambda adj, budget, max_nodes: (None, 0))
        res = search_periodic(8, max_det=66)
    assert res.coloring is None
    refuted = [e for e in res.log if e.endswith("not 33-colorable")]
    assert refuted == ["det 66 basis ((7, -5), (33, -33)): not 33-colorable"]
    images = [e for e in res.log if e.endswith("symmetric image of ((7, -5), (33, -33))")]
    assert len(images) == 5
    # the next call keeps nothing of it and finds the coloring again
    again = search_periodic(8, max_det=66)
    assert again.coloring.basis == ((7, -5), (33, -33))
    assert again.log == _searched(8).log


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
    with mock.patch.object(coloring_module, "_BLOCK_ENTRIES",
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


def test_one_even_translation_rule(monkeypatch):
    # the three parity checks keep their messages ...
    odd = ((1, 0), (0, 2))
    text = "hexcolor v1\nl 4\nlattice 1 0 0 2\ncell 0 0 1\ncell 0 1 2\n"
    with pytest.raises(InputError, match=r"basis vector \(1, 0\) is not an even translation"):
        LatticeColoring(4, odd, {})
    with pytest.raises(ColoringFormatError, match=r"vector \(1, 0\) has odd coordinate sum"):
        read_coloring(text)
    with pytest.raises(InputError, match="not a lattice of even translations"):
        quotient_conflicts(lattice_geometry(odd), 4)
    # ... and all three ask grid.is_even_translation
    monkeypatch.setattr(coloring_module, "is_even_translation", lambda t: True)
    assert LatticeColoring(4, odd, {}).det == 2
    assert read_coloring(text).basis == odd
    assert len(quotient_conflicts(lattice_geometry(odd), 4)) == 2


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


def _packing_bound(l):
    # ceil(3 l'^2 / 8), l' the least even number above l
    even = l + 2 - l % 2
    return -(-3 * even * even // 8)


@pytest.mark.slow
def test_search_lattice_starts_at_the_packing_bound():
    # the walk from det 0 first admits a lattice at the bound, for every
    # l up to 71, the last whose bound is at most 2000: no lattice below it
    # passes, and one at it does
    for l in range(1, 72):
        det, basis, _, _ = next(_admissible(l, 0, 2000))
        best = search_lattice(l)
        assert det == best.det == _packing_bound(l), l
        assert best.basis == basis, l
    assert _packing_bound(72) == _packing_bound(73) == 2054


def test_search_lattice_enumerates_nothing_below_the_packing_bound(monkeypatch):
    # det 38 at l = 8 is the bound; up to 36, and at l = 72, 100 and 1000
    # up to 2000, nothing is built or filtered
    monkeypatch.setattr(coloring_module, "_separation_ok", None)
    for l, max_det in ((8, 36), (8, 37), (72, 2000), (100, 2000), (1000, 2000)):
        assert search_lattice(l, max_det) is None, l


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


def test_below_span_searches_end_without_the_node_limit():
    # below the span every lattice is rejected; the point-group skip keeps
    # these fast (about 0.1 s each; 78 s and over 60 s without it)
    res = search_periodic(10, colors=47)
    assert res.coloring is None and res.lattices_tried == 815
    text = "\n".join(res.log)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "241d7274c549a5befddbb81b2758a3a364896252d9e66ab6c356afdcc0989c02")
    res = search_periodic(11, colors=53)
    assert res.coloring is None and res.lattices_tried == 1168
    assert sum(e.endswith(": clique exceeds 53") for e in res.log) == 220
    assert sum(": symmetric image of " in e for e in res.log) == 948


def test_search_periodic_refuses_fewer_colors_than_the_span(monkeypatch):
    # a one-color quotient at l = 8 would contradict the span of 33
    monkeypatch.setattr("hexspan.coloring.solve_coloring",
                        lambda adj, budget, max_nodes: ([0] * len(adj), 1))
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


def test_search_periodic_at_the_smallest_admissible_det_is_single_coset():
    # at the smallest det whose lattice passes the separation filter, the
    # multi-domain loop gives the single-coset search's coloring
    for l in range(1, 17):
        single = search_lattice(l, 400)
        res = search_periodic(l, colors=single.det)
        assert res.mode == "single-coset" and res.lattices_tried == 1, l
        assert res.coloring.basis == single.basis, l
        assert res.coloring.assignment == single.assignment, l
    # no lattice above max_det is tried, there either
    assert search_periodic(4, colors=14, max_det=10).coloring is None


def test_exact_window_feasibility_boundary():
    # radius-1 ball: 4 cells, all within distance 2 of each other
    res_ok = exact_window_span(2, 1, 4)
    assert res_ok.feasible
    assert verify_window(res_ok.coloring).valid
    res_no = exact_window_span(2, 1, 3)
    assert not res_no.feasible


@pytest.mark.parametrize("fake, message", [
    (lambda adj, budget: ([0] * len(adj), 1), "invalid window coloring"),
    (lambda adj, budget: (list(range(len(adj)))[:-1], 1), "no 19-coloring of the 19 cells"),
    (lambda adj, budget: (list(range(1, len(adj) + 1)), 1), "no 19-coloring of the 19 cells"),
    (lambda adj, budget: (list(range(-1, len(adj) - 1)), 1), "no 19-coloring of the 19 cells"),
])
def test_exact_window_rechecks_its_coloring(monkeypatch, fake, message):
    # the solver's feasible answer is verified before it is returned
    monkeypatch.setattr("hexspan.coloring.solve_coloring", fake)
    with pytest.raises(AssertionError, match=message):
        exact_window_span(4, 3, 19)


def test_exact_window_recheck_survives_optimize_flag():
    code = (
        "import hexspan.coloring as c\n"
        "c.solve_coloring = lambda adj, budget: ([0] * len(adj), 1)\n"
        "try:\n"
        "    c.exact_window_span(4, 3, 19)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('an invalid coloring was returned')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "invalid window coloring" in proc.stdout


def test_exact_window_clique_lower_bounds():
    for p in (1, 2, 3):
        size = 1 + 3 * p * (p + 1) // 2
        assert not exact_window_span(2 * p, p, size - 1).feasible
    for p in (1, 2):
        size = 1 + 3 * p * (p + 1) // 2
        assert exact_window_span(2 * p, p, size).feasible


def test_exact_window_guard_refuses():
    # radius 12 holds 235 cells, past MAX_WINDOW_CELLS = 200
    with pytest.raises(ResourceGuard, match="window of 235 cells exceeds the limit of 200"):
        exact_window_span(4, 12, 50)


def test_the_l8_radius7_window_needs_33_colours():
    # lambda^8 >= 33 by exhaustive search under the default node limit
    # (470,836 nodes, pinned in test_solver); with the 33-colour periodic
    # colouring of search_periodic(8), lambda^8 = 33
    res = exact_window_span(8, 7, 32)
    assert not res.feasible and res.coloring is None
    assert res.certificate == "exhaustive branch and bound"


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
    # the work follows the rows and runs of keys the cells occupy, not the
    # million offsets of the box
    cells = [(0, 0), (0, 1000), (500, 500), (10 ** 30, 1)]
    start = time.perf_counter()
    result = verify_window(WindowColoring(1000, dict.fromkeys(cells, 1)))
    assert time.perf_counter() - start < 1.0
    assert result.checked == 3
    assert [(v.u, v.v, v.distance) for v in result.violations] == [
        ((0, 0), (0, 1000), 1000), ((0, 0), (500, 500), 1000), ((0, 1000), (500, 500), 1000)]
    with pytest.raises(ResourceGuard, match="BFS oracle limit of 1000"):
        verify_window(WindowColoring(1001, {(0, 0): 1}))


def test_verify_window_past_the_cap_on_a_wide_box():
    # a monochrome ball at l = 200: the first cell alone has at least
    # 1000 clashing candidates, and the check stops within its runs
    window = WindowColoring(200, dict.fromkeys(ball((0, 0), 100), 1))
    start = time.perf_counter()
    result = verify_window(window)
    assert time.perf_counter() - start < 5.0
    assert result.checked == 1000 and len(result.violations) == 1000
    tracemalloc.start()
    try:
        verify_window(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


# block sizes: 1 lookup (one cell and one pair at a time), 7 (two or three
# cells at l <= 3), 64 (blocks of 16 cells at l = 4, the cap hit past the first),
# and 2**20 (every window here in one block, the wide box in three)
_LOOKUP_BLOCKS = [1, 7, 64, 2 ** 20]
_CAPPED_BALL = WindowColoring(4, dict.fromkeys(ball((0, 0), 12), 1))


@settings(max_examples=200, deadline=None)
@given(_windows(), st.sampled_from(_LOOKUP_BLOCKS))
@example(_CAPPED_BALL, 1)
@example(_CAPPED_BALL, 7)
@example(_CAPPED_BALL, 64)
@example(_CAPPED_BALL, 2 ** 20)
def test_verify_window_does_not_depend_on_the_block_size(window, block):
    with mock.patch.object(coloring_module, "_BLOCK_ENTRIES", block):
        result = verify_window(window)
    assert result.to_dict() == _pairwise_verify_window(window).to_dict()


@lru_cache(maxsize=None)
def _wide_box():
    # the window of test_verify_window_past_the_cap_on_a_wide_box, and its
    # pairwise verdict
    window = WindowColoring(200, dict.fromkeys(ball((0, 0), 100), 1))
    return window, _pairwise_verify_window(window).to_dict()


@pytest.mark.parametrize("block", _LOOKUP_BLOCKS)
def test_verify_window_past_the_cap_on_a_wide_box_in_any_block_size(block):
    window, expected = _wide_box()
    with mock.patch.object(coloring_module, "_BLOCK_ENTRIES", block):
        assert verify_window(window).to_dict() == expected


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


def test_verify_lattice_stops_at_the_100th_violation():
    # one color over a det-100 domain at l = 4: the first block, the 50
    # right-handed cells against their 30 ball offsets, already holds 100
    basis = ((10, 0), (0, 10))
    cells = lattice_geometry(basis).cells()
    result = verify_lattice(LatticeColoring(4, basis, dict.fromkeys(cells, 1)))
    assert not result.valid
    assert len(result.violations) == 100
    assert result.checked == 50 * 30


def test_verify_window_of_no_cells():
    assert verify_window(WindowColoring(3, {})) == VerifyResult(True, [], 0)


@pytest.mark.parametrize("text, line, message", [
    ("hexcolor v1\nl x\nwindow\ncell 0 0 1\n", 2, "bad integer 'x'"),
    ("hexcolor v1\nl 3\nlattice 2 0 a 2\ncell 0 0 1\n", 3,
     "lattice entries must be integers"),
    ("hexcolor v1\nl 3\n", 1, "missing 'lattice' or 'window' line"),
])
def test_coloring_file_errors_name_their_line(text, line, message):
    with pytest.raises(ColoringFormatError, match=f"^line {line}: {message}$") as err:
        read_coloring(text)
    assert err.value.line_no == line


def test_materialize_window_refuses_a_radius_past_the_bfs_limit():
    coloring = single_coset_coloring(8, ((6, 0), (3, 3)))
    start = time.perf_counter()
    with pytest.raises(ResourceGuard, match="ring radius 1001 exceeds the BFS oracle limit"):
        materialize_window(coloring, 1001)
    assert time.perf_counter() - start < 0.1
