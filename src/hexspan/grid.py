"""Coordinate model of the infinite hexagonal grid.

Cells are integer pairs (i, j).  A cell is right-handed when (i + j) is
even: its single horizontal edge points east, to (i+1, j).  Left-handed
cells (odd coordinate sum) point west instead.  Vertical edges
(i, j)-(i, j+1) always exist, so every cell has exactly three neighbours
and the graph is bipartite across the two handedness classes.

Two distance implementations are provided on purpose.  ``distance_closed``
is the O(1) closed form (with ``distance_closed_array`` and
``pairwise_distances`` as its numpy forms, which fill a large result
in blocks of rows, so that the result is their one full-size array).
Breadth-first search is
the slow, obviously-correct oracle it is checked against, and
``distance_field`` is its one sweep: it fills a whole box around a
source at once (layout below).  Its sizing rule: a geodesic never takes
two horizontal steps in a row (the second would walk straight back), so
every cell within distance R of the source, together with a geodesic to
it, lies in the box |di| <= (R+1)//2, |dj| <= R.  Inside that box the
field is exact up to R and reads more than R (or -1) beyond it.  Three
readers size their boxes by this rule:

* ``bfs_distances`` takes R = 2|di| + |dj| + 1, the largest over its
  targets, and stops the sweep once every target is reached.  A walk
  reaches offset (di, dj) within R steps: at most one vertical step
  before each of the |di| horizontal ones fixes the handedness, those
  steps head for the target's j, and any overshoot is undone in pairs
  plus at most one step.  The closed form plays no part in the sizing.
  ``distance_bfs`` is the single-target form;
* ``distance_within`` reads its distances from two whole fields, one
  swept from (0, 0) and one from (1, 0), over the box of its radius.
  Even translations are automorphisms, so the field of u's handedness,
  read at offset v - u, gives d(u, v);
* ``coloring.verify_lattice`` reads the radius-l ball from those fields.

The box is placed relative to the source, so a field depends on its
source only through the source's handedness.  ``distance_field`` sweeps
a box whole once per handedness and keeps the field in a bounded memo;
a call with a stop mask copies it and cuts the copy at D, the largest
distance among the flagged cells, which is where a sweep stopped at
the flagged cells would leave it.  The oracle criterion's 1,396 sources
thus share two sweeps, and ``distance_within`` reads the same memo.
``bfs_distances`` sweeps for its call alone and stops at its targets'
level, as a far target leaves most of a whole box unread.  Both refuse,
before any box-sized array is built, a box past ``_refuse_box``'s.

``distance_field`` keeps the w x h box as one Python int, a bitboard:
bit x*h + y stands for box cell (x, y) = (i - si + di_max, j - sj + dj_max),
so the box is w rows of h bits, row x holding one i and column y one j
(the C order of the result array).  One BFS level turns the frontier F
into its unseen neighbours with three shifts:

* ``(F & off_last) << 1`` and ``(F & off_first) >> 1`` are the vertical
  steps (j + 1 and j - 1).  The column guards ``off_last`` and
  ``off_first`` clear the bits at y = h - 1 and at y = 0 first, so that
  no step wraps into the next or previous row;
* ``F << h`` (i + 1) or ``F >> h`` (i - 1) is the horizontal step.  The
  graph is bipartite, so the cells of one level all share a handedness
  and all step the same way: east from right-handed cells, west from
  left-handed ones.  Bits shifted past either end of the box fall off
  or are cleared by the final ``& unseen``.

The distances come out bit-sliced: the cells first reached at level d
are OR-ed into plane b for every set bit b of d, and at the end each
plane is unpacked once (``np.unpackbits``) and weighted by 2**b.
Cells never reached hold -1.  A level costs about a dozen big-int
operations, whatever the size of its frontier.

The closed form is d(u, v) = max(|D(i + j)|, |D(i - j)|, |D(2i - p)|),
D the difference from u to v and p = (i + j) mod 2.  The first two
terms give |di| + |dj|, the distance when |di| <= |dj|.  Between a
western cell w and an eastern one e the third is 2|di| + p(w) - p(e),
the distance when |di| > |dj|, with the westward correction
p(w) - p(e) calibrated against the BFS oracle.  It is at least
2|di| - 1 >= |di| + |dj| when |di| > |dj|, at most 2|di| + 1 <= |di| + |dj|
when |di| < |dj|, and 2|di| when |di| = |dj| (the parities are then
equal), so the largest of the three is always the right branch.  The
test suite enforces the equivalence with the oracle exhaustively up to
radius 30.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import InputError, ResourceGuard

Vertex = tuple[int, int]

# The BFS oracle's one limit: a sweep to distance d covers up to 1.5d x 3d
# cells, memory growing as d squared and time about as d cubed.  At d = 1000
# `distance 0 0 500 500` takes 0.6 s, 81 MB; verify_lattice 2.3 s, 189 MB.
# verify_window, on the closed form, takes the same bound, so that coloring
# files of either kind have one limit on l.
DISTANCE_BFS_LIMIT = 1000


def _refuse_past_bfs_limit(what: str, value: int) -> None:
    """``ResourceGuard`` if ``value``, the ``what`` of a request, passes
    ``DISTANCE_BFS_LIMIT``."""
    if value > DISTANCE_BFS_LIMIT:
        raise ResourceGuard(f"{what} {value} exceeds the BFS oracle limit of {DISTANCE_BFS_LIMIT}")


def _refuse_box(di_max: int, dj_max: int) -> None:
    """``ResourceGuard`` for a box wider than a distance at the BFS limit L
    needs: a target within L has reach 2|di| + |dj| + 1 <= 3L/2 + 1."""
    reach = 3 * DISTANCE_BFS_LIMIT // 2 + 1
    box = ((reach + 1) // 2, reach)
    if di_max > box[0] or dj_max > box[1]:
        raise ResourceGuard(f"BFS box of half-widths ({di_max}, {dj_max}) exceeds the {box} "
                            f"box of the BFS oracle limit of {DISTANCE_BFS_LIMIT}")


def parity(v: Vertex) -> int:
    """0 for right-handed cells (east edge), 1 for left-handed (west edge)."""
    return (v[0] + v[1]) % 2


def is_right(v: Vertex) -> bool:
    return parity(v) == 0


def neighbors(v: Vertex) -> set[Vertex]:
    """The three adjacent cells."""
    i, j = v
    horizontal = (i + 1, j) if (i + j) % 2 == 0 else (i - 1, j)
    return {horizontal, (i, j + 1), (i, j - 1)}


def distance_closed(u: Vertex, v: Vertex) -> int:
    """Exact graph distance, closed form: the largest absolute difference
    between u and v of i + j, of i - j and of 2i - p, p = (i + j) mod 2.

    When |di| <= |dj| every step can make progress, so the distance is
    the L1 norm |di| + |dj|.  Otherwise vertical detours are forced: an
    eastward step must leave a right-handed cell and a westward step a
    left-handed one, which pins how many detour steps are needed.
    Writing w for the western and e for the eastern endpoint the total
    comes to 2|di| + p(w) - p(e).

    The three differences give both branches at once.  The first two
    give max(|di + dj|, |di - dj|) = |di| + |dj|.  For di != 0 the third
    is (2i_e - p(e)) - (2i_w - p(w)) = 2|di| + p(w) - p(e), the second
    branch; for di = 0 it is at most 1.  So:

    * if |di| > |dj|, it is at least 2|di| - 1 >= |di| + |dj|;
    * if |di| < |dj|, it is at most 2|di| + 1 <= |di| + |dj|;
    * if |di| = |dj|, i + j changes by an even amount, the parities are
      equal, and it is 2|di| = |di| + |dj|.
    """
    (i1, j1), (i2, j2) = u, v
    s1, s2 = i1 + j1, i2 + j2
    return max(abs(s1 - s2), abs((i1 - j1) - (i2 - j2)),
               abs((2 * i1 - s1 % 2) - (2 * i2 - s2 % 2)))


# the package's one block budget, in entries per numpy temporary: a large
# ``distance_closed_array`` result is filled in blocks of this many entries
# (at 1396 x 1396 the call peaks at its 15.6 MB result plus 0.4 MB, where
# one block took three times it, and on two 10**6-cell rows at its 8 MB
# result plus 0.9 MB), and the coloring module's lookup tables,
# pair chunks and distance rows and the CLI's widest-pair scan are cut to
# it: 128 KiB int64 temporaries that stay in cache
_BLOCK_ENTRIES = 1 << 14


def _closed_form(i1, j1, i2, j2, out=None):
    """``distance_closed_array``'s steps, into ``out`` if given: the three
    coordinate differences of ``distance_closed``, each taken on the
    un-broadcast inputs and then subtracted, and their largest."""
    s1, s2 = i1 + j1, i2 + j2
    # np.asarray keeps 0-d results arrays, so the in-place steps apply
    out = np.asarray(np.subtract(s1, s2, out=out))
    np.abs(out, out=out)
    d = np.asarray((i1 - j1) - (i2 - j2))
    np.maximum(out, np.abs(d, out=d), out=out)
    d = np.asarray((2 * i1 - (s1 & 1)) - (2 * i2 - (s2 & 1)))
    np.maximum(out, np.abs(d, out=d), out=out)
    return out


def distance_closed_array(i1, j1, i2, j2):
    """``distance_closed`` over numpy arrays, broadcasting.  Integer
    inputs narrower than int64 are promoted to it; other dtypes raise
    ``InputError``.

    A result of more than ``_BLOCK_ENTRIES`` entries is filled one block
    of first-axis rows at a time: inputs that vary along that axis are
    sliced, the others passed whole, and each block's steps run in place
    in the result.  The result is then the only full-size array; a
    smaller one takes a single block.  The sums i + j, i - j and 2i - p
    are taken on each block's un-broadcast inputs, never on the whole
    inputs, and the inputs are never written.
    """
    args = [np.asarray(a) for a in (i1, j1, i2, j2)]
    if not all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64) for a in args):
        raise InputError("coordinates must have an integer dtype that fits int64, got "
                         + ", ".join(str(a.dtype) for a in args))
    # narrower integers would wrap in the differences; int64 is not copied
    args = [a.astype(np.int64, copy=False) for a in args]
    full = np.broadcast(*args)
    if full.size <= _BLOCK_ENTRIES:
        return _closed_form(*args)
    out = np.empty(full.shape, np.result_type(*args))
    step = max(1, _BLOCK_ENTRIES * len(out) // out.size)
    for first in range(0, len(out), step):
        rows = slice(first, first + step)
        _closed_form(*(a[rows] if a.ndim == out.ndim and len(a) > 1 else a for a in args),
                     out=out[rows])
    return out


def pairwise_distances(cells: list[Vertex], cols: list[Vertex] | None = None) -> np.ndarray:
    """Matrix of graph distances from each of ``cells`` (rows) to each of
    ``cols`` (columns), len(cells) x len(cols); ``cols`` defaults to
    ``cells``, which gives the symmetric matrix.  Either may also be an
    n x 2 integer array, which is not copied again."""
    rows = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    cols = rows if cols is None else np.asarray(cols, dtype=np.int64).reshape(-1, 2)
    return distance_closed_array(rows[:, :1], rows[:, 1:], cols[:, 0], cols[:, 1])


def distance_bfs(u: Vertex, v: Vertex) -> int:
    """Exact graph distance by breadth-first search."""
    return bfs_distances(u, [v])[v]


def bfs_distances(source: Vertex, targets) -> dict[Vertex, int]:
    """BFS distances from ``source`` to every cell in ``targets``.

    One ``_sweep`` for this call alone, stopped once every target is
    reached, over a box sized by the walk bound in the module docstring;
    the memo is neither read nor filled.  Keys follow the first
    appearance of each target.
    """
    cells = list(dict.fromkeys(targets))
    if not cells:
        return {}
    si, sj = source
    reach = max(2 * abs(i - si) + abs(j - sj) + 1 for i, j in cells)
    di_max = (reach + 1) // 2
    _refuse_box(di_max, reach)
    rows = np.array([i - si + di_max for i, _ in cells])
    cols = np.array([j - sj + reach for _, j in cells])
    stop = np.zeros((2 * di_max + 1, 2 * reach + 1), dtype=bool)
    stop[rows, cols] = True
    found = _sweep(is_right(source), di_max, reach, _to_bits(stop))[rows, cols]
    if (found < 0).any():
        raise AssertionError(f"BFS sweep from {source} missed a target")
    return dict(zip(cells, found.tolist()))


def _to_bits(mask: np.ndarray) -> int:
    """A bool array as one int, bit k standing for flat (C-order) index k."""
    return int.from_bytes(np.packbits(mask, axis=None, bitorder="little").tobytes(), "little")


def _from_bits(bits: int, n: int) -> np.ndarray:
    """The first n bits of ``bits`` as a flat uint8 array of 0s and 1s."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


@lru_cache(maxsize=8)
def _column_guards(w: int, h: int) -> tuple[int, int, int]:
    """Bitboard masks of the w x h box: every cell, every cell off the
    last column (y = h - 1) and every cell off column 0."""
    y = np.broadcast_to(np.arange(h), (w, h))
    full = (1 << (w * h)) - 1
    return full, full ^ _to_bits(y == h - 1), full ^ _to_bits(y == 0)


# The memo keeps up to _SWEEPS whole fields (the reuse battery reads 18:
# radii 8..24, both handednesses; the oracle criterion 2) of up to
# _KEPT_CELLS box cells each, enough for distance_within at the BFS limit
# (1,001 x 2,001 cells).  A kept field is int32 only, at most 8.4 MB, so
# the memo holds at most 268 MB.  Larger boxes are swept for their call
# alone.
_SWEEPS = 32
_KEPT_CELLS = 1 << 21


def _sweep(east: bool, di_max: int, dj_max: int, waiting: int | None = None) -> np.ndarray:
    """The ``distance_field`` sweep of the box |di| <= di_max,
    |dj| <= dj_max around a source of the given handedness (``east`` for
    right-handed), -1 where unreached.  It stops once no cell of the
    bitboard ``waiting`` is unseen, finishing that level, or when the
    frontier runs dry; ``waiting=None`` waits for every cell."""
    w = 2 * di_max + 1
    h = 2 * dj_max + 1
    full, off_last, off_first = _column_guards(w, h)
    n = w * h
    frontier = 1 << (di_max * h + dj_max)
    unseen = full ^ frontier
    # waiting for every cell, the sweep ends when the box is exhausted,
    # exactly when the frontier would run dry
    waiting = (full if waiting is None else waiting) & unseen
    planes = [0] * n.bit_length()  # planes[b]: cells whose distance has bit b set
    d = 0
    while frontier and waiting:
        d += 1
        across = frontier << h if east else frontier >> h
        nxt = ((frontier & off_last) << 1 | (frontier & off_first) >> 1 | across) & unseen
        unseen ^= nxt
        waiting &= unseen
        b, e = 0, d
        while e:
            if e & 1:
                planes[b] |= nxt
            b += 1
            e >>= 1
        frontier = nxt
        east = not east  # the handedness of every frontier cell
    dist = np.zeros(n, dtype=np.int32)
    for b in range(d.bit_length()):
        dist |= np.left_shift(_from_bits(planes[b], n), b, dtype=np.int32)
    dist -= _from_bits(unseen, n)  # unreached cells are 0 so far
    return dist.reshape(w, h)


@lru_cache(maxsize=_SWEEPS)
def _whole_field(east: bool, di_max: int, dj_max: int) -> np.ndarray:
    """The memo: the whole, read-only field of one handedness and box."""
    field = _sweep(east, di_max, dj_max)
    field.setflags(write=False)
    return field


def distance_field(source: Vertex, di_max: int, dj_max: int,
                   stop_mask: np.ndarray | None = None) -> np.ndarray:
    """BFS distance to every cell of the box |i-si| <= di_max,
    |j-sj| <= dj_max, as an int32 array indexed [i - si + di_max, j - sj + dj_max].

    Level-synchronous bit-parallel sweep (see the module docstring).
    Unreached cells hold -1.  Distances are exact for any cell whose
    geodesic fits in the box; a geodesic of length L satisfies
    |di| <= (L+1)/2 and |dj| <= L along its whole course, which is how
    callers size the box.  ``stop_mask`` (a bool array of the same shape)
    lets the sweep stop early once every flagged cell has been reached;
    cells beyond the farthest flagged cell's distance D (0 if none is
    flagged) then hold -1.  If a flagged cell cannot be reached, the
    whole box is swept.

    The field depends on the source only through its handedness, so a
    box of up to ``_KEPT_CELLS`` cells is swept whole once per
    handedness and memoised, and a call copies it, cut at D.  The result
    is a fresh, writable array either way.
    """
    di_max, dj_max = operator.index(di_max), operator.index(dj_max)
    if di_max < 0 or dj_max < 0:
        raise InputError(f"box half-widths must be >= 0, got {di_max}, {dj_max}")
    _refuse_box(di_max, dj_max)
    shape = (2 * di_max + 1, 2 * dj_max + 1)
    if stop_mask is not None and (not isinstance(stop_mask, np.ndarray)
                                  or stop_mask.shape != shape or stop_mask.dtype != bool):
        raise InputError(f"stop_mask must be a bool array of shape {shape}")
    east = is_right(source)
    if shape[0] * shape[1] > _KEPT_CELLS:
        return _sweep(east, di_max, dj_max, None if stop_mask is None else _to_bits(stop_mask))
    field = _whole_field(east, di_max, dj_max)
    out = field.copy()
    if stop_mask is not None:
        flagged = field[stop_mask]
        if (flagged >= 0).all():  # else a stopped sweep runs out: the whole field
            np.copyto(out, -1, where=field > flagged.max(initial=0))
    return out


def _handed_field(right: bool, radius: int) -> np.ndarray:
    """The memoised whole field from (0, 0) (``right``) or from (1, 0)
    over the box ((radius+1)//2, radius), refused above the BFS limit."""
    _refuse_past_bfs_limit("radius", radius)
    return _whole_field(right, (radius + 1) // 2, radius)


def distance_within(u: Vertex, v: Vertex, radius: int) -> int | None:
    """BFS distance from u to v if it is at most ``radius``, else None:
    the ``_handed_field`` of u's handedness, read at v - u."""
    di = v[0] - u[0]
    dj = v[1] - u[1]
    di_max = (radius + 1) // 2
    if abs(di) > di_max or abs(dj) > radius:
        return None
    d = _handed_field(is_right(u), radius).item(di + di_max, dj + radius)
    return d if 0 <= d <= radius else None


def translate(v: Vertex, t: Vertex) -> Vertex:
    return (v[0] + t[0], v[1] + t[1])


def is_even_translation(t: Vertex) -> bool:
    """Even translations preserve handedness and are graph automorphisms."""
    return (t[0] + t[1]) % 2 == 0
