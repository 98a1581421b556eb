import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hexspan.grid import (
    bfs_distances,
    distance_bfs,
    distance_closed,
    distance_closed_array,
    distance_field,
    distance_within,
    is_even_translation,
    neighbors,
    pairwise_distances,
    parity,
    translate,
)
from hexspan.rings import ball

cells = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
small_cells = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def test_neighbor_examples():
    assert neighbors((0, 0)) == {(1, 0), (0, 1), (0, -1)}
    assert neighbors((1, 0)) == {(0, 0), (1, 1), (1, -1)}
    # parity (-3+4) is odd, so west edge
    assert neighbors((-3, 4)) == {(-4, 4), (-3, 5), (-3, 3)}


@given(cells)
def test_three_neighbors_opposite_parity(v):
    nbs = neighbors(v)
    assert len(nbs) == 3
    for u in nbs:
        assert parity(u) != parity(v)


@given(cells)
def test_neighbor_symmetry(v):
    for u in neighbors(v):
        assert v in neighbors(u)


def test_distance_examples():
    assert distance_bfs((0, 0), (0, 7)) == 7
    assert distance_bfs((0, 0), (1, 0)) == 1
    # the westward case that breaks a naive parity-difference formula
    assert distance_bfs((0, 0), (-1, 0)) == 3
    assert distance_closed((0, 0), (-1, 0)) == 3
    assert distance_closed((0, 0), (3, 2)) == 5 == distance_bfs((0, 0), (3, 2))
    assert distance_closed((0, 0), (2, 5)) == 7
    assert distance_closed((0, 0), (-3, 0)) == 7 == distance_bfs((0, 0), (-3, 0))


def test_westward_correction_table_derivation():
    """Rederive the closed form's correction from the BFS oracle alone.

    Over a radius-10 window, whenever |di| > |dj| the excess over 2|di|
    must be parity(west) - parity(east); this is the calibration that
    fixed the closed form.
    """
    window = ball((0, 0), 10)
    seen = set()
    for u in window:
        dm = bfs_distances(u, window)
        for v in window:
            di = abs(u[0] - v[0])
            dj = abs(u[1] - v[1])
            if di <= dj:
                continue
            west, east = (u, v) if u[0] < v[0] else (v, u)
            correction = dm[v] - 2 * di
            assert correction == parity(west) - parity(east), (u, v)
            seen.add((parity(west), parity(east), correction))
    # all four parity combinations must actually occur in the window
    assert seen == {(0, 0, 0), (1, 1, 0), (0, 1, -1), (1, 0, 1)}


def test_closed_equals_bfs_radius_8_exhaustive():
    window = ball((0, 0), 8)
    for u in window:
        dm = bfs_distances(u, window)
        for v in window:
            assert dm[v] == distance_closed(u, v), (u, v)


@given(small_cells, small_cells)
def test_closed_matches_bfs(u, v):
    assert distance_closed(u, v) == distance_bfs(u, v)


@given(cells, cells)
def test_symmetry_and_identity(u, v):
    assert distance_closed(u, v) == distance_closed(v, u)
    assert (distance_closed(u, v) == 0) == (u == v)


@given(cells, cells, cells)
def test_triangle_inequality(u, v, w):
    assert distance_closed(u, w) <= distance_closed(u, v) + distance_closed(v, w)


@given(small_cells, small_cells,
       st.tuples(st.integers(-10, 10), st.integers(-10, 10)))
def test_translation_invariance(u, v, t):
    if not is_even_translation(t):
        t = (t[0] + 1, t[1])
    assert is_even_translation(t)
    assert distance_bfs(translate(u, t), translate(v, t)) == distance_bfs(u, v)


@given(cells, cells)
def test_array_matches_scalar(u, v):
    arr = distance_closed_array(np.array([u[0]]), np.array([u[1]]),
                                np.array([v[0]]), np.array([v[1]]))
    assert int(arr[0]) == distance_closed(u, v)


def test_pairwise_distances_matrix():
    pts = [(0, 0), (1, 0), (-1, 0), (0, 7)]
    mat = pairwise_distances(pts)
    assert mat.shape == (4, 4)
    assert mat[0, 1] == 1 and mat[0, 2] == 3 and mat[0, 3] == 7
    assert (mat == mat.T).all() and (np.diag(mat) == 0).all()


def test_distance_field_matches_bfs():
    src = (2, -1)
    field = distance_field(src, 12, 20)
    for v in [(0, 0), (-3, 0), (2, 5), (-5, -7), (7, 3)]:
        got = field[v[0] - src[0] + 12, v[1] - src[1] + 20]
        assert got == distance_bfs(src, v), v


def test_distance_field_early_stop():
    src = (0, 0)
    stop = np.zeros((2 * 10 + 1, 2 * 18 + 1), dtype=bool)
    stop[10 + 1, 18 + 3] = True  # cell (1, 3)
    field = distance_field(src, 10, 18, stop_mask=stop)
    assert field[11, 21] == distance_bfs(src, (1, 3)) == 4


def test_distance_within_matches_sparse_bfs():
    # both handedness fields, read over a box twice the size they cover:
    # exact within the radius, None beyond it
    for radius in range(1, 13):
        di_max = 2 * ((radius + 1) // 2)
        for source in ((0, 0), (1, 0)):
            box = [(source[0] + di, source[1] + dj)
                   for di in range(-di_max, di_max + 1)
                   for dj in range(-2 * radius, 2 * radius + 1)]
            exact = bfs_distances(source, box)
            for v in box:
                expected = exact[v] if exact[v] <= radius else None
                assert distance_within(source, v, radius) == expected, (radius, source, v)


@given(small_cells, small_cells, st.integers(1, 12))
def test_distance_within_is_translation_invariant(u, v, radius):
    d = distance_bfs(u, v)
    assert distance_within(u, v, radius) == (d if d <= radius else None)
