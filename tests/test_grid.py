import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexspan import grid
from hexspan.errors import InputError, ResourceGuard
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


def _two_branch_closed(u, v):
    """The closed form as it was calibrated: the L1 norm when |di| <= |dj|,
    else 2|di| + parity(west) - parity(east)."""
    di = abs(u[0] - v[0])
    dj = abs(u[1] - v[1])
    if di <= dj:
        return di + dj
    west, east = (u, v) if u[0] < v[0] else (v, u)
    return 2 * di + parity(west) - parity(east)


def test_both_kernels_are_the_two_branch_formula_on_a_box():
    box = [(i, j) for i in range(-9, 10) for j in range(-9, 10)]
    expected = [[_two_branch_closed(u, v) for v in box] for u in box]
    assert [[distance_closed(u, v) for v in box] for u in box] == expected
    assert pairwise_distances(box).tolist() == expected


far = st.integers(-10 ** 30, 10 ** 30)


@given(st.tuples(far, far), st.tuples(far, far),
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
def test_scalar_kernel_is_the_two_branch_formula_past_int64(u, v, offset):
    # a far pair tests the big-int arithmetic; u and a near cell cross
    # both branches
    near = (u[0] + offset[0], u[1] + offset[1])
    for w in (v, near):
        assert distance_closed(u, w) == _two_branch_closed(u, w)


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


@pytest.mark.parametrize("shapes", [
    ((6, 1), (1, 9)),  # outer product, the pairwise_distances layout
    ((7,), ()),        # many cells against one 0-d cell
    ((), ()),          # a single pair of 0-d cells
])
def test_array_broadcasts_like_the_scalar_form(shapes):
    rng = np.random.default_rng(7)
    first, second = shapes
    i1, j1 = rng.integers(-30, 31, first), rng.integers(-30, 31, first)
    i2, j2 = rng.integers(-30, 31, second), rng.integers(-30, 31, second)
    inputs = [np.asarray(a) for a in (i1, j1, i2, j2)]
    before = [a.copy() for a in inputs]
    out = distance_closed_array(*inputs)
    assert out.dtype == np.int64
    assert out.shape == np.broadcast_shapes(first, second)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)  # the inputs are never written
    full = np.broadcast_arrays(*inputs)
    for idx in np.ndindex(out.shape):
        u = (int(full[0][idx]), int(full[1][idx]))
        v = (int(full[2][idx]), int(full[3][idx]))
        assert out[idx] == distance_closed(u, v), (u, v)


@pytest.mark.parametrize("dtype,u,v,d", [
    (np.uint8, (0, 0), (0, 1), 1),          # 0 - 1 wrapped to 255
    (np.int8, (-100, 0), (100, 0), 400),    # 2 * 200 wrapped to 112
    (np.uint32, (0, 0), (5, 3), 10),
])
def test_array_promotes_narrow_integers(dtype, u, v, d):
    out = distance_closed_array(*(np.array([x], dtype=dtype) for x in (*u, *v)))
    assert out.dtype == np.int64 and out.tolist() == [d] == [distance_closed(u, v)]


@pytest.mark.parametrize("bad", [np.array([0], np.uint64), np.array([0.0]),
                                 np.array([True]), np.array([0], object)])
def test_array_refuses_other_dtypes(bad):
    with pytest.raises(InputError, match="integer dtype that fits int64"):
        distance_closed_array(bad, 0, 0, 1)


def test_array_reads_int64_input_in_place():
    # narrow input is promoted by a copy; int64 input, the oracle sweep's,
    # is read in place
    arr = np.asarray(ball((0, 0), 30), dtype=np.int64)

    def peak(cells):
        tracemalloc.start()
        try:
            distance_closed_array(cells[:, :1], cells[:, 1:], 0, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(arr.astype(np.int32)) - peak(arr) >= arr.nbytes - 1024


def test_array_takes_python_ints():
    out = distance_closed_array(np.array([0, -1, 3]), np.array([0, 0, 2]), 0, 0)
    assert out.dtype == np.int64 and out.tolist() == [0, 3, 5]
    scalar = distance_closed_array(0, 0, -3, 0)
    assert scalar.shape == () and scalar.dtype == np.int64 and scalar == 7


@pytest.mark.parametrize("block", [1, 5, 7, 64])
@pytest.mark.parametrize("shapes,dtypes", [
    (((23, 1), (11,)), (np.int64,) * 4),   # the pairwise_distances layout
    (((40,), ()), (np.int64,) * 4),        # many cells against one 0-d cell
    (((0, 9), (9,)), (np.int64,) * 4),     # an empty first axis
    (((1, 30), (30,)), (np.int64,) * 4),   # one row wider than a block
    (((6, 4, 3), (4, 1)), (np.int64,) * 4),
    (((5, 1, 4), (1, 3, 1)), (np.int32,) * 4),
    (((17, 1), (1, 13)), (np.int32,) * 4),
    (((17, 1), (13,)), (np.int32, np.int64, np.int16, np.int32)),
    (((9, 2), (2,)), (np.int8, np.int8, np.int64, np.int8)),
])
def test_blocked_kernel_equals_one_block(block, shapes, dtypes, monkeypatch):
    import hexspan.grid as grid

    rng = np.random.default_rng(block)
    first, second = shapes
    inputs = [rng.integers(-40, 41, shape).astype(dtype)
              for shape, dtype in zip((first, first, second, second), dtypes)]
    before = [a.copy() for a in inputs]
    reference = grid.distance_closed_array(*inputs)  # every case fits one block
    monkeypatch.setattr(grid, "_BLOCK_ENTRIES", block)
    out = grid.distance_closed_array(*inputs)
    assert out.dtype == reference.dtype and out.shape == reference.shape
    assert np.array_equal(out, reference)
    for a, b in zip(inputs, before):
        assert a.dtype == b.dtype and np.array_equal(a, b)  # never written


def test_closed_form_on_the_oracle_window_in_bounded_memory():
    # one full-size array, the result: the unblocked steps kept two more
    # 1396 x 1396 int64 arrays live, a peak of about 47 MB
    arr = np.asarray(ball((0, 0), 30), dtype=np.int64)
    tracemalloc.start()
    try:
        out = distance_closed_array(arr[:, :1], arr[:, 1:], arr[:, 0], arr[:, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1396, 1396) and out.dtype == np.int64
    assert peak < out.nbytes + 4 * 2 ** 20, peak
    assert np.array_equal(out, out.T) and (np.diag(out) == 0).all()
    corner = arr[:40]
    assert np.array_equal(out[:40, :40], pairwise_distances(corner))


def test_closed_form_on_long_rows_in_bounded_memory():
    # verify_path_bound's shape: two long 1-D rows of cells, measured in
    # blocks; the sums taken over the whole rows would add six 8 MB arrays
    rng = np.random.default_rng(3)
    u = rng.integers(-10 ** 6, 10 ** 6, (10 ** 6, 2))
    v = rng.integers(-10 ** 6, 10 ** 6, (10 ** 6, 2))
    tracemalloc.start()
    try:
        out = distance_closed_array(u[:, 0], u[:, 1], v[:, 0], v[:, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (10 ** 6,) and out.dtype == np.int64
    assert peak < out.nbytes + 4 * 2 ** 20, peak
    for k in range(0, 10 ** 6, 9973):
        assert out[k] == distance_closed(tuple(u[k].tolist()), tuple(v[k].tolist())), k


def test_pairwise_distances_matrix():
    pts = [(0, 0), (1, 0), (-1, 0), (0, 7)]
    mat = pairwise_distances(pts)
    assert mat.shape == (4, 4)
    assert mat[0, 1] == 1 and mat[0, 2] == 3 and mat[0, 3] == 7
    assert (mat == mat.T).all() and (np.diag(mat) == 0).all()


@given(st.lists(cells, max_size=6), st.lists(cells, max_size=6))
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_rectangular(rows, cols):
    mat = pairwise_distances(rows, cols)
    assert mat.shape == (len(rows), len(cols)) and mat.dtype == np.int64
    assert mat.tolist() == [[distance_closed(u, v) for v in cols] for u in rows]


def test_distance_field_matches_bfs():
    src = (2, -1)
    field = distance_field(src, 12, 20)
    reference = _reference_distance_field(src, 12, 20)
    for v in [(0, 0), (-3, 0), (2, 5), (-5, -7), (7, 3)]:
        idx = (v[0] - src[0] + 12, v[1] - src[1] + 20)
        assert field[idx] == reference[idx] == distance_closed(src, v), v


def test_distance_field_early_stop():
    src = (0, 0)
    stop = np.zeros((2 * 10 + 1, 2 * 18 + 1), dtype=bool)
    stop[10 + 1, 18 + 3] = True  # cell (1, 3)
    field = distance_field(src, 10, 18, stop_mask=stop)
    assert field[11, 21] == distance_bfs(src, (1, 3)) == 4
    # the level that reaches the flagged cell is finished, nothing beyond it
    whole = distance_field(src, 10, 18)
    assert np.array_equal(field, np.where(whole <= 4, whole, -1))


def test_distance_within_matches_sparse_bfs():
    # both handedness fields, read over a box twice the size they cover:
    # exact within the radius, None beyond it.  The reference sweep runs
    # over the walk-bound box of the farthest corner, so it is exact on
    # the whole box read here.
    for radius in range(1, 13):
        di_max = 2 * ((radius + 1) // 2)
        reach = 2 * di_max + 2 * radius + 1
        for source in ((0, 0), (1, 0)):
            exact = _reference_distance_field(source, (reach + 1) // 2, reach)
            for di in range(-di_max, di_max + 1):
                for dj in range(-2 * radius, 2 * radius + 1):
                    d = exact[di + (reach + 1) // 2, dj + reach]
                    assert d >= 0
                    expected = d if d <= radius else None
                    v = (source[0] + di, source[1] + dj)
                    assert distance_within(source, v, radius) == expected, (radius, source, v)


@given(small_cells, small_cells, st.integers(1, 12))
def test_distance_within_is_translation_invariant(u, v, radius):
    d = _reference_distance(u, v)
    assert distance_within(u, v, radius) == (d if d <= radius else None)


def _reference_distance_field(source, di_max, dj_max, stop_mask=None):
    """The numpy array sweep that ``distance_field`` replaced: twelve
    whole-box array operations per level, the same early-stop rule."""
    w = 2 * di_max + 1
    h = 2 * dj_max + 1
    ii = np.arange(w)[:, None] + (source[0] - di_max)
    jj = np.arange(h)[None, :] + (source[1] - dj_max)
    even = ((ii + jj) % 2) == 0
    dist = np.full((w, h), -1, dtype=np.int32)
    frontier = np.zeros((w, h), dtype=bool)
    frontier[di_max, dj_max] = True
    dist[di_max, dj_max] = 0
    waiting = int(stop_mask.sum() - stop_mask[di_max, dj_max]) if stop_mask is not None else -1
    d = 0
    while frontier.any():
        if waiting == 0:
            break
        d += 1
        nxt = np.zeros_like(frontier)
        nxt[:, 1:] |= frontier[:, :-1]
        nxt[:, :-1] |= frontier[:, 1:]
        fe = frontier & even
        nxt[1:, :] |= fe[:-1, :]
        fo = frontier & ~even
        nxt[:-1, :] |= fo[1:, :]
        nxt &= dist < 0
        dist[nxt] = d
        if stop_mask is not None:
            waiting -= int((nxt & stop_mask).sum())
        frontier = nxt
    return dist


def _reference_distance(u, v):
    """d(u, v) by the reference sweep, over the box of the walk bound
    2|di| + |dj| + 1 (see the ``grid`` module docstring)."""
    reach = 2 * abs(v[0] - u[0]) + abs(v[1] - u[1]) + 1
    field = _reference_distance_field(u, (reach + 1) // 2, reach)
    return int(field[v[0] - u[0] + (reach + 1) // 2, v[1] - u[1] + reach])


def _flagged(kind, source, di_max, dj_max, seed):
    """A stop mask of one kind over the box, None for "none"."""
    shape = (2 * di_max + 1, 2 * dj_max + 1)
    if kind == "none":
        return None
    mask = np.zeros(shape, dtype=bool)
    if kind == "source":
        mask[di_max, dj_max] = True
    elif kind == "sparse":
        mask |= np.random.default_rng(seed).random(shape) < 0.05
    elif kind in ("far", "unreachable"):
        # one of the last cells reached, or a cell the box cannot reach if
        # there is one (a one-column box reaches only the source and its
        # horizontal neighbour): either way the sweep runs out
        whole = _reference_distance_field(source, di_max, dj_max)
        unreached = np.argwhere(whole < 0)
        far = kind == "far" or not len(unreached)
        mask[tuple(np.unravel_index(whole.argmax(), shape) if far else unreached[0])] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(small_cells,
       st.integers(0, 7) | st.just(0),
       st.integers(0, 12) | st.just(0),
       st.sampled_from(["none", "empty", "source", "sparse", "far", "unreachable"]),
       st.integers(0, 2 ** 32 - 1))
def test_distance_field_is_the_reference_sweep(source, di_max, dj_max, stop, seed):
    mask = _flagged(stop, source, di_max, dj_max, seed)
    expected = _reference_distance_field(source, di_max, dj_max,
                                         None if mask is None else mask.copy())
    got = distance_field(source, di_max, dj_max, stop_mask=mask)
    assert got.dtype == expected.dtype == np.int32
    assert got.shape == expected.shape == (2 * di_max + 1, 2 * dj_max + 1)
    assert np.array_equal(got, expected)


# few boxes, so that the calls of one example share memoised fields
_MEMO_CALL = st.tuples(
    small_cells,
    st.sampled_from([(0, 3), (2, 0), (3, 5), (4, 8)]),
    st.sampled_from(["none", "empty", "source", "sparse", "far", "unreachable"]),
    st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(_MEMO_CALL, min_size=1, max_size=12))
def test_distance_field_memo_in_any_call_order(calls):
    # calls interleave boxes and handednesses and share the memoised
    # fields; every result is the reference sweep's, and writing to it
    # never reaches a later call
    grid._whole_field.cache_clear()
    for source, (di_max, dj_max), kind, seed in calls:
        if kind == "unreachable":
            dj_max = 0
        mask = _flagged(kind, source, di_max, dj_max, seed)
        expected = _reference_distance_field(source, di_max, dj_max,
                                             None if mask is None else mask.copy())
        got = distance_field(source, di_max, dj_max, stop_mask=mask)
        assert got.dtype == np.int32 and got.flags.writeable
        assert np.array_equal(got, expected), (source, di_max, dj_max, kind)
        got[...] = 7


def test_one_off_sweep_stops_at_its_target(monkeypatch):
    # bfs_distances sweeps its box (reach 41) for its call alone and ends
    # at the target's level, as the reference sweep does, not at the far
    # corner; the memo is neither read nor filled
    grid._whole_field.cache_clear()
    levels = []
    kernel = grid._sweep

    def counted(*args):
        field = kernel(*args)
        levels.append(int(field.max()))
        return field

    monkeypatch.setattr(grid, "_sweep", counted)
    assert bfs_distances((0, 0), [(0, 40)]) == {(0, 40): 40}
    assert levels == [40] and grid._whole_field.cache_info().currsize == 0
    # distance_field sweeps the same box whole, once, into the memo, and a
    # call flagging a farther cell, (20, 41), cuts its copy there
    stop = np.zeros((43, 83), dtype=bool)
    stop[21 + 20, 41 + 41] = True
    for _ in range(2):
        field = distance_field((0, 0), 21, 41, stop_mask=stop)
        assert field.max() == field[41, 82] == distance_closed((0, 0), (20, 41)) == 61
        assert np.array_equal(field, _reference_distance_field((0, 0), 21, 41, stop.copy()))
    assert len(levels) == 2 and levels[1] > 61
    assert grid._whole_field.cache_info().currsize == 1
    # a memoised box is still swept afresh by bfs_distances
    assert bfs_distances((2, 0), [(2, 40)]) == {(2, 40): 40}
    assert levels[2:] == [40] and grid._whole_field.cache_info().currsize == 1


def test_large_boxes_are_swept_for_their_call_alone(monkeypatch):
    monkeypatch.setattr(grid, "_KEPT_CELLS", 11 * 21 - 1)
    grid._whole_field.cache_clear()
    stop = np.zeros((11, 21), dtype=bool)
    stop[9, 4] = True
    for mask in (stop, None, stop):
        got = distance_field((3, 0), 5, 10, stop_mask=mask)
        expected = _reference_distance_field((3, 0), 5, 10, None if mask is None else stop.copy())
        assert np.array_equal(got, expected)
    assert grid._whole_field.cache_info().currsize == 0
    distance_field((3, 0), 5, 9)  # 11 x 19 cells: kept
    assert grid._whole_field.cache_info().currsize == 1


def test_handed_fields_are_the_shared_sweeps():
    grid._whole_field.cache_clear()
    right, left = grid._handed_field(True, 6), grid._handed_field(False, 6)
    assert grid._whole_field.cache_info().currsize == 2
    assert right is grid._whole_field(True, 3, 6) and left is grid._whole_field(False, 3, 6)
    assert not right.flags.writeable and not left.flags.writeable
    assert np.array_equal(right, _reference_distance_field((0, 0), 3, 6))
    assert np.array_equal(left, _reference_distance_field((1, 0), 3, 6))
    # distance_within and distance_field read the same two fields
    assert distance_within((5, 1), (4, 3), 6) == 3
    whole = distance_field((-1, 0), 3, 6)
    assert grid._whole_field.cache_info().currsize == 2
    assert whole is not left and whole.flags.writeable and np.array_equal(whole, left)
    # above the BFS limit both refuse before sweeping
    for refused in (lambda: grid._handed_field(False, 1001),
                    lambda: distance_within((0, 0), (0, 1), 1001)):
        with pytest.raises(ResourceGuard, match="BFS oracle limit of 1000"):
            refused()
    assert grid._whole_field.cache_info().currsize == 2


def test_distance_field_one_column_and_one_row_boxes():
    # dj_max = 0: only the horizontal edge leaves the source's column
    assert distance_field((0, 0), 2, 0).tolist() == [[-1], [-1], [0], [1], [-1]]
    assert distance_field((1, 0), 2, 0).tolist() == [[-1], [1], [0], [-1], [-1]]
    # di_max = 0: a vertical path
    assert distance_field((0, 0), 0, 3).tolist() == [[3, 2, 1, 0, 1, 2, 3]]
    # a flagged cell the box cannot reach leaves the sweep to run out
    stop = np.zeros((5, 1), dtype=bool)
    stop[0, 0] = True
    assert distance_field((0, 0), 2, 0, stop_mask=stop).tolist() == [[-1], [-1], [0], [1], [-1]]


def test_distance_field_takes_numpy_integers():
    # the bitboard of a 65 x 125 box is 8,125 bits wide, far past int64
    got = distance_field((np.int64(1), np.int64(0)), np.int64(32), np.int64(62))
    assert np.array_equal(got, distance_field((1, 0), 32, 62))


@pytest.mark.parametrize("di_max, dj_max, mask", [
    (-1, 3, None),
    (2, -1, None),
    (2, 3, np.zeros((5, 6), dtype=bool)),    # wrong shape
    (2, 3, np.zeros((7, 5), dtype=bool)),    # transposed
    (2, 3, np.zeros((5, 7), dtype=np.int8)),  # not bool
    (2, 3, np.zeros(35, dtype=bool)),         # flat
    (2, 3, [[False] * 7] * 5),                # not an array
])
def test_distance_field_rejects_bad_arguments(di_max, dj_max, mask):
    with pytest.raises(InputError):
        distance_field((0, 0), di_max, dj_max, stop_mask=mask)


def test_distance_field_guard_survives_optimize_flag():
    # python -O strips assert statements; the guard must be a real raise
    code = (
        "import numpy as np\n"
        "from hexspan.errors import InputError\n"
        "from hexspan.grid import distance_field\n"
        "for args in [((0, 0), -1, 2, None), ((0, 0), 2, 3, np.zeros((5, 6), dtype=bool))]:\n"
        "    try:\n"
        "        distance_field(*args)\n"
        "    except InputError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        raise SystemExit(f'accepted {args[1:3]}')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


@pytest.mark.parametrize("source", [(0, 0), (1, 0)])
def test_bfs_distances_one_sweep_over_a_wide_box(source):
    # one call, so one box, sized by the farthest target
    targets = [(source[0] + di, source[1] + dj)
               for di in range(-20, 21) for dj in range(-40, 41)]
    got = bfs_distances(source, targets)
    assert list(got) == targets
    for v in targets:
        assert got[v] == distance_closed(source, v), v


@pytest.mark.parametrize("source", [(0, 0), (1, 0)])
def test_bfs_distances_single_far_targets(source):
    # one target per call: the box is as small as the walk bound allows
    for k in range(1, 61):
        for di, dj in [(k, 0), (-k, 0), (0, k), (0, -k), (k, k), (k, -k), (-k, k), (-k, -k)]:
            v = (source[0] + di, source[1] + dj)
            assert bfs_distances(source, [v]) == {v: distance_closed(source, v)}, v


def test_bfs_distances_edge_cases():
    src = (3, -2)
    assert bfs_distances(src, []) == {}
    assert bfs_distances(src, [src]) == {src: 0}
    got = bfs_distances(src, iter([(0, 7), src, (-1, 0), (0, 7), (5, 5)]))
    assert list(got) == [(0, 7), src, (-1, 0), (5, 5)]  # first-seen order
    assert got == {v: distance_closed(src, v) for v in got}


def test_bfs_distances_guard_survives_optimize_flag():
    # a sweep that misses a target must raise, not hand back -1
    code = (
        "import numpy as np\n"
        "import hexspan.grid as grid\n"
        "grid._sweep = lambda east, di_max, dj_max, waiting=None: "
        "np.full((2 * di_max + 1, 2 * dj_max + 1), -1, dtype=np.int32)\n"
        "try:\n"
        "    grid.distance_bfs((0, 0), (3, 2))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('a missed target was accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "missed a target" in proc.stdout


class _Admitted(Exception):
    """Raised in place of a sweep: the box was admitted."""


def test_bfs_boxes_past_the_limit_are_refused_before_they_are_built(monkeypatch):
    # a target within the limit of 1000 has reach 2|di| + |dj| + 1 <= 1501,
    # so boxes up to half-widths (751, 1501) are swept and wider ones are
    # refused without a box-sized array or bitboard
    assert distance_bfs((0, 0), (0, 1000)) == 1000

    def admitted(east, di_max, dj_max, waiting=None):
        raise _Admitted(di_max, dj_max)

    monkeypatch.setattr(grid, "_sweep", admitted)
    for sweep, box in ((lambda: distance_bfs((0, 0), (500, 500)), (751, 1501)),
                       (lambda: distance_bfs((1, 0), (751, 0)), (751, 1501)),
                       (lambda: distance_bfs((0, 0), (0, -1500)), (751, 1501)),
                       (lambda: distance_field((0, 0), 751, 1501), (751, 1501))):
        with pytest.raises(_Admitted) as exc:
            sweep()
        assert exc.value.args == box
    tracemalloc.start()
    try:
        for refused in (lambda: distance_bfs((0, 0), (10 ** 6, 0)),
                        lambda: distance_bfs((0, 0), (751, 0)),
                        lambda: distance_bfs((0, 0), (0, 1501)),
                        lambda: bfs_distances((0, 0), [(0, 1), (-751, 0)]),
                        lambda: distance_field((0, 0), 10 ** 6, 10 ** 6),
                        lambda: distance_field((0, 0), 752, 0),
                        lambda: distance_field((0, 0), 0, 1502)):
            with pytest.raises(ResourceGuard, match="box of the BFS oracle limit of 1000"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
