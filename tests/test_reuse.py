import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexspan.errors import ResourceGuard
from hexspan.grid import distance_closed, pairwise_distances
from hexspan.reuse import (
    _annulus_graph,
    _max_clique_bits,
    _spreads,
    color_budget_certificate,
    compatibility_masks,
    double_reuse_pairs,
    max_spread,
    max_spreads,
    run_checks,
    shell_reuse_ranges,
    spread_by_powerset,
    verify_corner_pair_exclusion,
    verify_corner_reuse,
    verify_noncorner_reuse,
    verify_path_bound,
    verify_shell_reuse,
    verify_shell_reuse_all,
)
from hexspan.rings import ball, build_ring, reuse_set, _shell_members


def test_max_spread_corner_example():
    # corner (0,5) of the radius-5 ring into the radius-6 ring
    target = build_ring((0, 0), 6).members
    bound = max_spread((0, 5), 5, target)
    assert bound.max_spread == 2
    assert set(bound.witness) == {(3, -3), (-3, -3)}


def test_max_spread_noncorner_is_one():
    target = build_ring((0, 0), 6).members
    for source in build_ring((0, 0), 5).non_corners:
        assert max_spread(source, 5, target).max_spread <= 1


def test_max_spread_empty_target():
    assert max_spread((0, 0), 4, []).max_spread == 0


def test_max_spread_witness_recheck_survives_optimize_flag():
    # a complete compatibility graph makes the clique search return a
    # witness whose cells are too close; the BFS recheck must reject it
    # even under python -O, which strips assert statements
    code = (
        "import hexspan.reuse as reuse\n"
        "from hexspan.rings import build_ring\n"
        "reuse.compatibility_masks = lambda cells, sep: "
        "[((1 << len(cells)) - 1) & ~(1 << a) for a in range(len(cells))]\n"
        "try:\n"
        "    reuse.max_spread((0, 5), 5, build_ring((0, 0), 6).members)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('bad witness accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "closer than 11" in proc.stdout


def _max_clique_popcount_only(masks):
    """The clique search before the colour bound: the same branching
    order, pruned only by the number of candidates."""
    best_size = 0
    best_set = 0

    def expand(cur, cur_size, cand):
        nonlocal best_size, best_set
        if cur_size > best_size:
            best_size, best_set = cur_size, cur
        while cand:
            if cur_size + cand.bit_count() <= best_size:
                return
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            expand(cur | bit, cur_size + 1, cand & masks[v])

    expand(0, 0, (1 << len(masks)) - 1)
    return best_size, best_set


@st.composite
def uniform_graphs(draw):
    n = draw(st.integers(0, 40))
    density = draw(st.floats(0.0, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    masks = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < density:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


@st.composite
def battery_graphs(draw):
    """The battery's graphs: up to 40 cells of a ring annulus just
    outside the radius-p ball, joined at distance >= 2p+1.  On these the
    whole-graph colouring bound is usually tight and ends the search."""
    p = draw(st.integers(2, 8))
    k = draw(st.integers(p + 1, 2 * p + 2))
    width = draw(st.integers(0, 3))
    rnd = draw(st.randoms(use_true_random=False))
    annulus = [v for h in range(k, k + width + 1) for v in build_ring((0, 0), h).members]
    cells = sorted(rnd.sample(annulus, min(draw(st.integers(0, 40)), len(annulus))))
    return compatibility_masks(cells, 2 * p + 1)


def _complete(n):
    return [((1 << n) - 1) & ~(1 << a) for a in range(n)]


def _search(masks, cand=None):
    """``_max_clique_bits`` with its non-neighbour table, by default over
    the whole graph."""
    others = [~(m | 1 << v) for v, m in enumerate(masks)]
    if cand is None:
        cand = (1 << len(masks)) - 1
    return _max_clique_bits(masks, others, cand)


@given(st.one_of(uniform_graphs(), battery_graphs()))
@example([])
@example([0] * 7)
@example(_complete(1))
@example(_complete(30))
@settings(max_examples=200, deadline=None)
def test_max_clique_colour_bound_keeps_the_first_maximum_clique(masks):
    assert _search(masks) == _max_clique_popcount_only(masks)


@st.composite
def graphs_with_candidates(draw):
    masks = draw(st.one_of(uniform_graphs(), battery_graphs()))
    keep = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    return masks, [v for v, kept in enumerate(keep) if kept]


@given(graphs_with_candidates())
@example(([0b110, 0b101, 0b011, 0], []))                     # empty set
@example((_complete(5), [3]))                                # one cell
@example(([0b10, 0b01, 0b1000, 0b100, 0], list(range(5))))   # full set
@example((_complete(12), list(range(12))))                   # complete graph
@example((_complete(12), [0, 4, 5, 11]))
@settings(max_examples=200, deadline=None)
def test_max_clique_inside_a_candidate_set_is_the_induced_search(graph):
    # the search inside the candidate set must be the search on the
    # induced subgraph, renumbered in the same order and mapped back
    masks, picked = graph
    induced = [sum(1 << b for b, w in enumerate(picked) if masks[v] >> w & 1)
               for v in picked]
    size, chosen = _max_clique_popcount_only(induced)
    expected = sum(1 << v for b, v in enumerate(picked) if chosen >> b & 1)
    assert _search(masks, sum(1 << v for v in picked)) == (size, expected)


def _spread_reference(source, p, target):
    """One source's spread the slow way: its sorted reuse set, the
    compatibility graph and the clique search without colour bounds."""
    members = sorted(reuse_set(source, p, target).members)
    size, chosen = _max_clique_popcount_only(compatibility_masks(members, 2 * p + 1))
    return size, tuple(m for i, m in enumerate(members) if chosen >> i & 1)


@st.composite
def ring_cells(draw, max_k):
    k = draw(st.integers(1, max_k))
    return build_ring((0, 0), k).members[draw(st.integers(0, 3 * k - 1))]


@given(st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_max_spreads_matches_per_source_reference(p, data):
    cell = ring_cells(3 * p + 2)
    target = data.draw(st.lists(cell, max_size=40), label="target")
    if target:
        target += data.draw(st.lists(st.sampled_from(target), max_size=5), label="duplicates")
    sources = data.draw(st.lists(cell, max_size=6), label="sources")
    if sources or target:
        # repeated sources, and sources inside the target
        sources += data.draw(st.lists(st.sampled_from(sources + target), max_size=4),
                             label="extra sources")
    spreads = max_spreads(sources, p, target)
    assert [s.source for s in spreads] == sources
    for s in spreads:
        assert s.p == p
        assert (s.max_spread, s.witness) == _spread_reference(s.source, p, target)


def _annulus(p):
    """Rings p+1..2p-1, which hold every spread target of run_checks(p)."""
    return [v for k in range(p + 1, 2 * p) for v in build_ring((0, 0), k).members]


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_spreads_inside_the_annulus_graph_match_per_source_reference(p, data):
    target = data.draw(st.lists(st.sampled_from(_annulus(p)), max_size=60), label="target")
    cell = ring_cells(2 * p)
    sources = data.draw(st.lists(cell, max_size=6), label="sources")
    spreads = _spreads(sources, p, target, _annulus_graph(p))
    assert [s.source for s in spreads] == sources
    for s in spreads:
        assert (s.max_spread, s.witness) == _spread_reference(s.source, p, target)


@pytest.mark.parametrize("p", [4, 5, 6])
def test_run_checks_builds_one_spread_graph(p, monkeypatch):
    # the annulus's graph is the battery's only compatibility graph;
    # double_reuse_pairs reads its six corners' pairs off distances
    import hexspan.reuse as reuse

    graphs, pairs = [], []
    masks, double = reuse.compatibility_masks, reuse.double_reuse_pairs
    monkeypatch.setattr(reuse, "compatibility_masks",
                        lambda cells, sep: graphs.append(cells) or masks(cells, sep))
    monkeypatch.setattr(reuse, "double_reuse_pairs",
                        lambda *args: pairs.append(args) or double(*args))
    _annulus_graph.cache_clear()
    run_checks(p)
    assert len(pairs) == 6
    assert graphs == [sorted(_annulus(p))]


def test_run_checks_refuses_p_past_the_limit(monkeypatch):
    import hexspan.reuse as reuse

    def fail(*args):
        raise AssertionError("ring built")

    monkeypatch.setattr(reuse, "build_ring", fail)
    monkeypatch.setattr(reuse, "ball", fail)
    for p in (25, 100000, 10 ** 12):
        with pytest.raises(ResourceGuard, match=f"p {p} exceeds the observation battery's "
                                                "limit of 24"):
            run_checks(p)


@pytest.mark.parametrize("p", [4, 7])
def test_run_checks_builds_each_ring_once(p, monkeypatch):
    import hexspan.rings as rings

    built = []
    offsets = rings._ring_offsets
    monkeypatch.setattr(rings, "_ring_offsets", lambda k: built.append(k) or offsets(k))
    build_ring.cache_clear()
    run_checks(p)
    # rings 1..p of the path bound's ball, p+1..2p+2 around it: each once
    assert sorted(built) == list(range(1, 2 * p + 3))


@pytest.mark.parametrize("p", [4, 5, 8])
def test_each_check_alone_reports_as_in_the_battery(p):
    def alone(check, *args):
        _annulus_graph.cache_clear()
        return check(p, *args).to_dict()

    shells = [alone(verify_shell_reuse, q, r) for q, r in shell_reuse_ranges(p)]
    reports = [alone(verify_path_bound), alone(verify_corner_reuse),
               alone(verify_noncorner_reuse), *shells,
               alone(verify_corner_pair_exclusion), alone(color_budget_certificate)]
    _annulus_graph.cache_clear()
    assert [r.to_dict() for r in verify_shell_reuse_all(p)] == shells
    assert [r.to_dict() for r in run_checks(p)] == reports


def test_max_spreads_edge_cases():
    ring = build_ring((0, 0), 6).members
    assert max_spreads([], 5, ring) == []
    assert [s.max_spread for s in max_spreads([(0, 0), (0, 5)], 5, [])] == [0, 0]
    # a repeated source, a source inside the target, a doubled target
    sources = [(0, 5), (0, 5), ring[0]]
    for target in (ring, ring + ring[:5]):
        got = [(s.max_spread, s.witness) for s in max_spreads(sources, 5, target)]
        assert got == [_spread_reference(v, 5, ring) for v in sources]
        single = max_spread((0, 5), 5, target)
        assert got[0] == (single.max_spread, single.witness)


def test_max_spreads_rechecks_every_witness_of_a_shared_clique(monkeypatch):
    # the radius-1 ball is far from ring 12 at 2p+1 = 9, so all four
    # sources share one reuse set and one clique search; each still gets
    # its own BFS recheck against every witness cell
    import hexspan.reuse as reuse

    searches = []
    checked = set()
    search, within = reuse._max_clique_bits, reuse.distance_within
    monkeypatch.setattr(reuse, "_max_clique_bits",
                        lambda m, o, cand: searches.append(cand) or search(m, o, cand))
    monkeypatch.setattr(reuse, "distance_within",
                        lambda a, b, r: checked.add((a, b)) or within(a, b, r))
    sources = [(0, 0), *build_ring((0, 0), 1).members]
    spreads = max_spreads(sources, 4, build_ring((0, 0), 12).members)
    assert len(searches) == 1
    witness = spreads[0].witness
    assert len(witness) > 1
    for s in spreads:
        assert s.witness == witness
        assert {(s.source, w) for w in witness} <= checked


def _plain_compatibility(cells, separation):
    masks = [0] * len(cells)
    for a, b in combinations(range(len(cells)), 2):
        if distance_closed(cells[a], cells[b]) >= separation:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return masks


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 150])
def test_compatibility_masks_blocks_match_plain_pair_scan(n):
    # n = 63, 64 and 65 sit on either side of one row block, 150 spans three
    annulus = [v for k in range(6, 12) for v in build_ring((0, 0), k).members]
    cells = random.Random(n).sample(annulus, n)
    assert compatibility_masks(cells, 9) == _plain_compatibility(cells, 9)


def test_compatibility_masks_peak_memory_stays_blocked():
    # rings 40..43 (498 cells): a full 498 x 498 distance matrix keeps
    # three n x n int64 arrays live (about 6 MB); blocks of rows stay
    # near 1 MB
    cells = sorted(v for k in range(40, 44) for v in build_ring((0, 0), k).members)
    assert len(cells) == 498
    tracemalloc.start()
    try:
        compatibility_masks(cells, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_double_reuse_pairs_read_in_index_pair_order():
    # the pairs from the set bits, in the order of a scan over all
    # index pairs a < b
    for p, q in ((4, 0), (5, 1), (7, 2)):
        target = build_ring((0, 0), p + q + 1).members
        for source in build_ring((0, 0), p - q).members[::3]:
            members = sorted(reuse_set(source, p, target).members)
            masks = _plain_compatibility(members, 2 * p + 1)
            expected = [(members[a], members[b]) for a, b in
                        combinations(range(len(members)), 2) if masks[a] >> b & 1]
            assert double_reuse_pairs(source, p, target) == expected


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_double_reuse_pairs_read_off_the_annulus_graph(p):
    # the pairs from the distances are the pairs the annulus graph joins,
    # in the same order
    index, masks, _ = _annulus_graph(p)
    ring = build_ring((0, 0), p)
    target = build_ring((0, 0), p + 1).members
    for source in ring.corners + ring.members[1::4]:
        members = sorted(reuse_set(source, p, target).members)
        assert double_reuse_pairs(source, p, target) == [
            (a, b) for a, b in combinations(members, 2) if masks[index[a]] >> index[b] & 1]


# sha256 of the sorted-key JSON of run_checks(p): any change to a
# verdict, a tally or a witness changes it
BATTERY_DIGESTS = {
    4: "bcb54b46da5a770fab4688ab1eede0a9993aadafd65e65802519a04f7101f7ea",
    5: "9f6286b2d5f566864acc5e5c09746c4c0c77bf2685ac632fbf020c1eae2d15b6",
    6: "13ab7f596d8715b39d59ae7274bdeb83e240c7762be5d6599408ea2156513830",
    7: "5cd64434224c159caf62c556715ad177b1770f945d05fbd286a76da807b569ad",
    8: "1b9c4838ac21cf332d4f7f0442c1cad403d1e2a0fd734c6ae61c2d37af3eeff3",
    9: "16e3d5cf158cc5acf931d633b1d7e2b375e0ddb8481145f1bf9515bd5b3a2cc7",
    10: "eb4483f931414a36ff7bba256596ca5705b4d62d4c5ef4e8a86a1ed9d09da4a3",
    11: "816e22e173bec1f43744ad13c4ad328d182cc8d5878ebe47f23ac80fc06eafba",
    12: "ff033407dbc03463535f2259af0f81d405327c3bdd78166b9a40c846dc2514ee",
}


@pytest.mark.parametrize("p", sorted(BATTERY_DIGESTS))
def test_run_checks_reports_are_pinned(p):
    text = json.dumps([r.to_dict() for r in run_checks(p)], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BATTERY_DIGESTS[p]


def test_max_spread_agrees_with_powerset_scan():
    target = build_ring((0, 0), 6).members
    for source in build_ring((0, 0), 5).members[:8]:
        assert max_spread(source, 5, target).max_spread == \
            spread_by_powerset(source, 5, target)


@given(st.integers(4, 7), st.integers(0, 2))
@settings(max_examples=12, deadline=None)
def test_spread_shrinks_with_p(p, q):
    # enlarging p can only shrink the spread for a fixed geometry
    target = build_ring((0, 0), p + q + 1).members
    source = build_ring((0, 0), max(p - q, 1)).members[0]
    s1 = max_spread(source, p, target).max_spread
    s2 = max_spread(source, p + 1, target).max_spread
    assert s2 <= s1


def test_path_bound_passes():
    for p in (2, 4, 5):
        assert verify_path_bound(p).ok


def _path_bound_reference(p):
    """The path bound over the full inner x outer distance matrix:
    (counterexamples, pairs checked)."""
    inner = ball((0, 0), p)
    outer = [v for k in range(p + 1, 2 * p + 3) for v in build_ring((0, 0), k).members]
    (d1,), (d2,) = pairwise_distances([(0, 0)], inner), pairwise_distances([(0, 0)], outer)
    cross = pairwise_distances(inner, outer)
    premise = d1[:, None] + d2[None, :] < 2 * p + 1
    breach = premise & (cross >= 2 * p + 1)
    return ([{"v1": inner[a], "v2": outer[b], "d": int(cross[a, b])}
             for a, b in zip(*np.nonzero(breach))], int(premise.sum()))


@pytest.mark.parametrize("p", range(2, 13))
def test_path_bound_measures_only_the_premise_pairs(p):
    rep = verify_path_bound(p)
    assert (rep.counterexamples, rep.params["pairs_checked"]) == _path_bound_reference(p)
    assert rep.ok


@pytest.mark.parametrize("p", [2, 3, 5])
def test_path_bound_counterexamples_in_row_major_order(p, monkeypatch):
    # the true metric gives no counterexample; one that adds 3 to an
    # elementwise quarter of the pairs gives many, in both computations
    import hexspan.grid as grid
    import hexspan.reuse as reuse

    kernel = grid.distance_closed_array

    def skewed(i1, j1, i2, j2):
        return kernel(i1, j1, i2, j2) + 3 * ((i1 - 2 * j1 + 3 * i2 + j2) % 4 == 0)

    monkeypatch.setattr(grid, "distance_closed_array", skewed)
    monkeypatch.setattr(reuse, "distance_closed_array", skewed)
    rep = verify_path_bound(p)
    expected, pairs = _path_bound_reference(p)
    assert len(expected) > 1
    assert (rep.counterexamples, rep.params["pairs_checked"]) == (expected, pairs)


def test_corner_reuse_passes_and_ranges():
    rep = verify_corner_reuse(5)
    assert rep.ok
    assert rep.maxima.get(2, 0) > 0
    assert rep.params["q"] == [0, 1, 2, 3]


def test_noncorner_reuse_passes_and_ranges():
    assert verify_noncorner_reuse(5).ok
    rep = verify_noncorner_reuse(7)
    assert rep.ok and rep.params["q"] == [0, 1, 2, 3, 4]


def test_shell_reuse_range_errors():
    with pytest.raises(ValueError):
        verify_shell_reuse(5, 4, 1)   # q > p-4
    with pytest.raises(ValueError):
        verify_shell_reuse(5, 0, 2)   # r > floor((p-q)/2)-1
    with pytest.raises(ValueError):
        verify_shell_reuse(3, 0, 1)   # p too small


def test_shell_reuse_ranges_enumeration():
    assert shell_reuse_ranges(4) == [(0, 1)]
    assert (0, 1) in shell_reuse_ranges(6) and (0, 2) in shell_reuse_ranges(6)


def test_shell_reuse_double_bound_fails_on_arc_midpoints():
    """The two-reuse bound genuinely fails for shell cells that sit at
    distance 2h from two corners at once; the verifier must surface
    them rather than hide them."""
    rep = verify_shell_reuse(5, 0, 1)
    assert not rep.ok
    bad = {ce["source"] for ce in rep.counterexamples}
    assert bad == {(3, 0), (-1, -4), (-1, 4)}
    assert all(ce["spread"] == 3 for ce in rep.counterexamples)
    # and those three are exactly the cells at distance 2 from two corners
    corners = build_ring((0, 0), 5).corners
    mids = {v for v in _shell_members((0, 0), 5, 1)
            if sum(1 for c in corners if distance_closed(v, c) == 2) == 2}
    assert bad == mids


def test_shell_reuse_clean_case_passes_double_bound():
    # ring 10, depth 1: no arc-length coincidence, no deep union: r=1
    # keeps every shell cell within the two-reuse bound
    rep = verify_shell_reuse(10, 0, 1)
    shell_breaches = [ce for ce in rep.counterexamples if ce["kind"] == "shell"]
    assert not shell_breaches


def test_corner_pair_exclusion():
    for p in (4, 5, 7):
        rep = verify_corner_pair_exclusion(p)
        assert rep.ok, rep.counterexamples


def test_corner_double_reuse_pairs_pattern():
    # at q=0 each corner has exactly one way to be doubly reused: the
    # outer-ring corners two and four arcs further around
    p = 5
    corners_in = build_ring((0, 0), p).corners
    target = build_ring((0, 0), p + 1)
    for idx, corner in enumerate(corners_in):
        pairs = double_reuse_pairs(corner, p, target.members)
        assert len(pairs) == 1
        assert set(pairs[0]) == {target.corners[(idx + 2) % 6],
                                 target.corners[(idx + 4) % 6]}


def test_budget_certificate_p5_numbers():
    rep = color_budget_certificate(5)
    assert rep.ok
    stage = rep.params["stages_detail"][0]
    assert stage["ring"] == 24
    assert stage["slots"] == {"claimed": 21, "actual": 21}
    assert stage["deficit"] == {"claimed": 3, "actual": 3}
    assert stage["reuse_cap"] == 18
    assert stage["shell_supply"]["actual"] == 9  # the k=5 shell has 9 cells
    assert rep.params["final_count"]["total"] == 48


def test_budget_certificate_p4_final_count():
    rep = color_budget_certificate(4)
    assert rep.ok
    assert rep.params["final_count"] == {
        "clique": 31, "extra": 2, "total": 33, "formula": 33,
    }


@pytest.mark.parametrize("p", [4, 5, 6, 7, 8])
def test_budget_certificate_passes(p):
    assert color_budget_certificate(p).ok


def test_report_serialization():
    rep = verify_corner_reuse(4)
    payload = rep.to_dict()
    assert payload["id"] == "corner-reuse"
    assert payload["verdict"] == "pass"
    assert isinstance(payload["maxima"], dict)


def test_run_checks_order_and_ids():
    ids = [r.check for r in run_checks(4)]
    assert ids[0] == "path-bound"
    assert ids[-1] == "new-color-budget"
    assert "corner-pair-exclusion" in ids
