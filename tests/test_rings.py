import time

import pytest

from hexspan import rings
from hexspan.errors import InputError, ResourceGuard
from hexspan.grid import bfs_distances, distance_closed, parity
from hexspan.rings import (
    ball,
    ball_size,
    build_clique,
    build_ring,
    build_shell,
    corner_offsets,
    expected_shell_size,
    reuse_set,
    shell_union,
    _shell_members,
)
from hexspan.grid import pairwise_distances


def test_ring_k7_corners_match_printed_values():
    ring = build_ring((0, 0), 7)
    assert len(ring.members) == 21
    assert ring.corners == ((0, 7), (4, 3), (4, -3), (0, -7), (-3, -4), (-3, 4))


def test_ring_k1_is_the_neighborhood():
    ring = build_ring((0, 0), 1)
    assert set(ring.members) == {(1, 0), (0, 1), (0, -1)}
    assert ring.corners == ()


def test_ring_rejects_k0():
    with pytest.raises(ValueError):
        build_ring((0, 0), 0)


@pytest.mark.parametrize("k", range(2, 26))
def test_ring_laws(k):
    ring = build_ring((0, 0), k)
    # 3k members, disjoint arc partition, arc sizes alternate ceil/floor
    assert len(ring.members) == 3 * k
    assert len(set(ring.members)) == 3 * k
    flat = [v for arc in ring.arcs for v in arc]
    assert flat == list(ring.members)
    sizes = [len(arc) for arc in ring.arcs]
    up, dn = (k + 1) // 2, k // 2
    assert sizes == [up, dn, up, dn, up, dn]
    # corners are the arc heads, at the canonical 1-based indices
    assert len(ring.corners) == 6
    for arc, corner in zip(ring.arcs, ring.corners):
        assert arc[0] == corner
    for n, corner in zip([1, up + 1, k + 1, k + up + 1, 2 * k + 1, 2 * k + up + 1],
                         ring.corners):
        assert ring.member(n) == corner
    # corner coordinates from the six closed-form offsets
    assert list(ring.corners) == [(di, dj) for di, dj in corner_offsets(k)]


@pytest.mark.parametrize("center", [(0, 0), (3, -5), (1, 0), (-4, 7)])
def test_ring_and_shells_match_their_definitions(center):
    # arcs are slices of the member list and corners their heads; shells
    # read straight off the scalar distance to each corner
    mirror = -1 if parity(center) else 1
    for k in range(1, 41):
        ring = build_ring(center, k)
        assert all(type(arc) is tuple for arc in ring.arcs)
        assert [v for arc in ring.arcs for v in arc] == list(ring.members)
        assert list(ring.corners) == ([] if k == 1 else [
            (center[0] + mirror * di, center[1] + dj) for di, dj in corner_offsets(k)])
        for h in range(k // 2 + 1):
            assert _shell_members(center, k, h) == frozenset(
                v for v in ring.non_corners
                if any(distance_closed(v, c) == 2 * h for c in ring.corners))


@pytest.mark.parametrize("k", [2, 5, 9, 14])
def test_ring_members_at_exact_distance_bfs(k):
    ring = build_ring((0, 0), k)
    dm = bfs_distances((0, 0), ring.members)
    assert all(dm[v] == k for v in ring.members)


def test_ring_left_center_mirrors():
    left = (1, 0)
    assert parity(left) == 1
    ring = build_ring(left, 1)
    assert set(ring.members) == {(0, 0), (1, 1), (1, -1)}
    ring5 = build_ring(left, 5)
    dm = bfs_distances(left, ring5.members)
    assert all(dm[v] == 5 for v in ring5.members)
    assert len(set(ring5.members)) == 15


@pytest.mark.parametrize("p,size", [(1, 4), (4, 31), (5, 46)])
def test_clique_sizes(p, size):
    assert len(build_clique((0, 0), p).members) == size


def test_clique_p1_members():
    assert set(build_clique((0, 0), 1).members) == {(0, 0), (1, 0), (0, 1), (0, -1)}


def test_clique_pairwise_distance_bound():
    clique = build_clique((0, 0), 5)
    mat = pairwise_distances(list(clique.members))
    assert mat.max() == 10


@pytest.mark.parametrize("p", range(1, 16))
def test_clique_size_law(p):
    assert len(build_clique((0, 0), p).members) == 1 + 3 * p * (p + 1) // 2


def test_shell_k7_h1_exact_members():
    ring = build_ring((0, 0), 7)
    shell = build_shell((0, 0), 7, 1)
    # 1-based ring indices of the h=1 shell around each corner
    expected = {2, 4, 6, 7, 9, 11, 13, 14, 16, 18, 20, 21}
    got = {ring.members.index(v) + 1 for v in shell.members}
    assert got == expected
    assert len(shell.members) == 12


def test_shell_range_errors():
    with pytest.raises(ValueError):
        build_shell((0, 0), 7, 3)  # h = floor(k/2) would include corners
    with pytest.raises(ValueError):
        build_shell((0, 0), 7, 0)
    with pytest.raises(ValueError):
        build_shell((0, 0), 4, 1)  # ring too small


def test_shell_size_true_law():
    """Shell sizes are 12 except when 2h hits an arc length: the three
    long arcs or three short arcs then each lose their shared midpoint
    (both at once when k is divisible by 4)."""
    for k in range(5, 26):
        for h in range(1, k // 2):
            shell = build_shell((0, 0), k, h)
            assert len(shell.members) == expected_shell_size(k, h), (k, h)
            assert not set(shell.members) & set(build_ring((0, 0), k).corners)


def test_shell_size_examples():
    assert len(build_shell((0, 0), 5, 1).members) == 9   # 2h = floor(5/2)
    assert len(build_shell((0, 0), 7, 2).members) == 9   # 2h = ceil(7/2)
    assert len(build_shell((0, 0), 8, 2).members) == 6   # both arc lengths
    assert len(build_shell((0, 0), 6, 1).members) == 12
    assert len(_shell_members((0, 0), 4, 1)) == 6


def test_shell_union_sizes():
    # shells of distinct depths on one ring are disjoint from each other
    # and from the corners whenever 2h stays below the arc lengths
    assert len(shell_union((0, 0), 8, 1)) == 6 + 12
    assert len(shell_union((0, 0), 11, 2)) == 6 + 24


def test_reuse_set_corner_pattern():
    # corner (0,5) of the k=5 ring into the k=6 ring: the far arcs 3, 4
    # and the opposite corner
    ring6 = build_ring((0, 0), 6)
    rs = reuse_set((0, 5), 5, ring6.members)
    expected = set(ring6.arcs[2]) | set(ring6.arcs[3]) | {ring6.corners[4]}
    assert rs.members == frozenset(expected)


def test_reuse_set_noncorner_pattern():
    # first-arc non-corner (2,4) of the k=6 ring into the k=7 ring:
    # arc 4 plus corner 5
    ring6 = build_ring((0, 0), 6)
    source = ring6.member(3)
    assert source == (2, 4)
    ring7 = build_ring((0, 0), 7)
    rs = reuse_set(source, 6, ring7.members)
    assert rs.members == frozenset(set(ring7.arcs[3]) | {ring7.corners[4]})


def test_reuse_set_empty_when_too_close():
    ring5 = build_ring((0, 0), 5)
    src = ring5.members[0]
    rs = reuse_set(src, 5, ring5.members)
    assert rs.members == frozenset()


def test_reuse_set_monotone_in_p():
    target = build_ring((0, 0), 9).members
    src = (0, 5)
    sizes = [len(reuse_set(src, p, target).members) for p in (5, 6, 7)]
    assert sizes == sorted(sizes, reverse=True)


def test_ball_counts():
    assert len(ball((0, 0), 0)) == 1
    assert len(ball((0, 0), 3)) == 1 + 3 * 3 * 4 // 2
    assert len(set(ball((1, 0), 4))) == 1 + 3 * 4 * 5 // 2


def test_ball_size_is_the_size_of_the_ball():
    for r in range(41):
        assert ball_size(r) == len(ball((0, 0), r)) == len(ball((1, 0), r))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        ball_size(-1)


def test_clique_left_center():
    clique = build_clique((1, 0), 3)
    assert len(clique.members) == 1 + 3 * 3 * 4 // 2
    dm = bfs_distances((1, 0), clique.members)
    assert max(dm.values()) == 3
    assert pairwise_distances(list(clique.members)).max() == 6


def test_rings_balls_and_cliques_past_the_bfs_limit_are_refused_at_once(monkeypatch):
    # a ring radius or clique diameter past the limit of 1000 is refused
    # before any ring is built
    def fail(k):
        raise AssertionError("ring built")

    monkeypatch.setattr(rings, "_ring_offsets", fail)
    for refused, what in ((lambda: build_ring((0, 0), 1001), "ring radius 1001"),
                          (lambda: ball((0, 0), 10 ** 6), "ring radius 1000000"),
                          (lambda: build_clique((0, 0), 501), "clique diameter 1002")):
        start = time.perf_counter()
        with pytest.raises(ResourceGuard, match=f"^{what} exceeds the BFS oracle limit of 1000$"):
            refused()
        assert time.perf_counter() - start < 0.1


def test_ball_refuses_a_negative_radius():
    with pytest.raises(InputError, match="radius must be >= 0, got -1"):
        ball((0, 0), -1)
