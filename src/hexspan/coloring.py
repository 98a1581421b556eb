"""Colorings of the hexagonal grid under the separation constraint
"equal colors only at distance >= l+1".

Two periodic flavours are supported, both built on a sublattice L of
the even translation lattice (translations with even coordinate sum,
the handedness-preserving automorphisms):

* single-coset: every coset of L is its own color, so the number of
  colors equals |det L|.  Valid iff every nonzero vector of L moves
  cells by at least l+1.  Note that an even translation always moves a
  cell an even distance, so a single-coset coloring that works for an
  even l automatically works for l+1 as well; optimal counts for even l
  are therefore usually out of reach of this mode.

* multi-domain: colors are assigned cell by cell over the fundamental
  domain of L and repeat with period L.  Finding an assignment is an
  exact coloring problem on the quotient with wrap-around distances,
  solved from the orbit row alone or by the branch-and-bound engine.

Both searches walk the lattices in array passes, a block of whole
determinants at a time: the normal forms are enumerated as arrays, the
separation filter is a shortest-vector test in the grid's own norm
N(i, j) = max(|i| + |j|, 2|i|) on Lagrange-reduced bases, and each
admissible lattice gets one integer key for its point-group orbit.  A
normal form comes from one algorithm, a Euclid run on the basis vectors:
over arrays of bases in ``_orbit_keys``, on one basis in
``lattice_geometry``.  Every numpy temporary, of lookups, bases, pairs or
distance rows, is cut to the one block budget ``grid._BLOCK_ENTRIES``.

The search translates one orbit row, ``_missed``, to every domain cell;
``verify_lattice`` reads each repeated color's row over its own BFS ball.
``verify_window`` stays on the closed form, so the two verifiers share no
distance code: it reads each cell's candidates as runs of sorted keys, and
measures only the pairs of one color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, ResourceGuard
from .grid import (
    _BLOCK_ENTRIES,
    Vertex,
    _handed_field,
    _refuse_past_bfs_limit,
    distance_closed_array,
    is_even_translation,
    pairwise_distances,
    parity,
)
from .rings import ball, ball_size
from .solver import MAX_NODES, bitmask_graph, greedy_clique, solve_coloring
from .spans import span_even


@dataclass(frozen=True)
class LatticeGeometry:
    """Canonical description of a rank-2 integer lattice: generators
    (a, b) and (0, d) with 0 < a, 0 < d, 0 <= b < d.  Cells of the
    fundamental domain are {(x, y) : 0 <= x < a, 0 <= y < d}."""

    a: int
    b: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d

    def cells(self) -> list[Vertex]:
        return [(x, y) for x in range(self.a) for y in range(self.d)]

    def canonical(self, v: Vertex) -> Vertex:
        s = v[0] // self.a
        return (v[0] - s * self.a, (v[1] - s * self.b) % self.d)

    def points_in_box(self, imax: int, jmax: int) -> list[Vertex]:
        """All lattice vectors with |i| <= imax and |j| <= jmax."""
        pts = []
        for s in range(-(imax // self.a), imax // self.a + 1):
            x = s * self.a
            y0 = s * self.b
            tlo = -((jmax + y0) // self.d)
            thi = (jmax - y0) // self.d
            pts.extend((x, y0 + t * self.d) for t in range(tlo, thi + 1))
        return pts


def lattice_geometry(basis: tuple[Vertex, Vertex]) -> LatticeGeometry:
    """The normal form of the lattice that ``basis`` spans: ``_orbit_keys``'s
    Euclid run on this one basis (x, y), in Python ints, so that the
    entries of a coloring file are exact at any size.  x, y = y, x - q*y
    with q = x_i // y_i keeps a basis and ends with y_i = 0, so that
    x = (+-a, +-b) and y = (0, +-d).  ``InputError`` on a degenerate basis
    (det 0)."""
    (p1, q1), (p2, q2) = basis
    if p1 * q2 - p2 * q1 == 0:
        raise InputError(f"degenerate lattice basis {basis}")
    (xi, xj), (yi, yj) = basis
    while yi:
        q = xi // yi
        xi, xj, yi, yj = yi, yj, xi - q * yi, xj - q * yj
    d = abs(yj)
    return LatticeGeometry(abs(xi), (-xj if xi < 0 else xj) % d, d)


@dataclass
class LatticeColoring:
    """Periodic coloring: colors assigned on the fundamental domain of
    the sublattice spanned by ``basis`` and repeated with that period."""

    l: int
    basis: tuple[Vertex, Vertex]
    assignment: dict[Vertex, int]

    def __post_init__(self) -> None:
        for t in self.basis:
            if not is_even_translation(t):
                raise InputError(f"basis vector {t} is not an even translation")
        self.geometry = lattice_geometry(self.basis)

    @property
    def det(self) -> int:
        return self.geometry.det

    @property
    def color_count(self) -> int:
        return len(set(self.assignment.values()))

    @property
    def mode(self) -> str:
        """"single-coset" when every coset has its own color."""
        return "single-coset" if self.color_count == self.det else "multi-domain"

    def color_of(self, v: Vertex) -> int:
        return self.assignment[self.geometry.canonical(v)]


@dataclass
class WindowColoring:
    """Explicit coloring of a finite set of cells."""

    l: int
    assignment: dict[Vertex, int]

    @property
    def color_count(self) -> int:
        return len(set(self.assignment.values()))


def single_coset_coloring(l: int, basis: tuple[Vertex, Vertex]) -> LatticeColoring:
    """One color per coset, numbered in fundamental-domain order."""
    geo = lattice_geometry(basis)
    assignment = {cell: n + 1 for n, cell in enumerate(geo.cells())}
    return LatticeColoring(l, basis, assignment)


@dataclass
class Violation:
    u: Vertex
    v: Vertex
    distance: int
    color: int

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v),
                "distance": self.distance, "color": self.color}


@dataclass
class VerifyResult:
    valid: bool
    violations: list[Violation]
    checked: int

    def to_dict(self) -> dict:
        return {"valid": self.valid, "checked": self.checked,
                "violations": [v.to_dict() for v in self.violations]}


def verify_lattice(coloring: LatticeColoring) -> VerifyResult:
    """Full periodic check: domain cell u clashes with k, of its color, if
    canonical(u + o) = k for some o != 0 in the BFS ball of u's handedness
    (k = u, separation, is checked from (0, 0) only).  Only cells whose
    color repeats are looked up, in blocks of rows, each over its own
    ball rather than translated from one row; a pair is reported once,
    from its lower index, at its nearest ball cell.  ``checked`` counts
    lookups; the check stops at 100 violations.  ``InputError`` if the
    assignment does not cover the domain, ``ResourceGuard`` if l is above
    the BFS limit."""
    l, geo, assignment = coloring.l, coloring.geometry, coloring.assignment
    cells = geo.cells()
    if assignment.keys() != set(cells):
        raise InputError("assignment does not cover the fundamental domain exactly")
    palette: dict[int, int] = {}
    code = np.array([palette.setdefault(assignment[cell], len(palette)) for cell in cells])
    rows = np.flatnonzero((np.bincount(code)[code] > 1) | (np.arange(geo.det) == 0))
    violations: list[Violation] = []
    checked = 0
    for hand, (offsets, dist) in enumerate(_bfs_ball(l)):
        own = rows[parity(np.divmod(rows, geo.d)) == hand, None]
        step = max(1, _BLOCK_ENTRIES // max(dist.size, 1))
        for start in range(0, len(own), step):
            u = own[start:start + step]
            xs, ys = np.divmod(u, geo.d)
            cx, cy = geo.canonical((xs + offsets[0], ys + offsets[1]))
            index = cx * geo.d + cy
            checked += index.size
            hits = (code[index] == code[u]) & ((index > u) | (index == 0) & (u == 0))
            nearest: dict[tuple[int, int], int] = {}
            for r, m in zip(*np.nonzero(hits)):
                nearest.setdefault((r, index[r, m]), m)
            for (r, _), m in nearest.items():
                x, y = cells[u[r, 0]]
                v = (x + int(offsets[0, m]), y + int(offsets[1, m]))
                violations.append(Violation((x, y), v, int(dist[m]), assignment[(x, y)]))
                if len(violations) == 100:
                    return VerifyResult(False, violations, checked)
    return VerifyResult(not violations, violations, checked)


def _grid_norm(i, j):
    """N(i, j) = max(|i| + |j|, 2|i|), elementwise: the distance by which
    the even translation (i, j) moves every cell, ``distance_closed((0, 0),
    (i, j))`` without its parity term, which is zero for i + j even.  N is
    a norm; its unit ball is the hexagon with corners (0, +-1) and
    (+-1/2, +-1/2)."""
    i, j = np.abs(i), np.abs(j)
    return np.maximum(i + j, 2 * i)


def _separation_ok(bases, l: int) -> np.ndarray:
    """One verdict per basis of even translations, given as pairs of
    vectors or as a (k, 4) array of rows (p1, q1, p2, q2): True iff every
    nonzero lattice vector (an even translation, so an automorphism) moves
    every cell by more than l, that is iff the lattice's shortest nonzero
    vector in the norm N of ``_grid_norm`` exceeds l.

    All bases are Lagrange-reduced together in the quadratic form
    Q(i, j) = 3i^2 + j^2, with B its bilinear form, in int64 arithmetic,
    exact for entries below 10**8: swap so that Q(u) <= Q(v), then take
    v -= m*u with m the integer nearest B(u, v)/Q(u), until m is 0.  Each
    step shrinks Q(v) or ends the next one, and then Q(u) <= Q(v) and
    |2B(u, v)| <= Q(u).  The
    minimum of N over the lattice is then the least of N(u), N(v),
    N(u + v) and N(u - v):
    - Q(m*u + n*v) >= (m^2 - |mn| + n^2) * Q(u), by the two inequalities;
    - 3/4 * N^2 <= Q <= N^2 (check |i| <= |j| and |i| > |j|);
    - so a vector w = m*u + n*v with N(w) < N(u) has Q(w) <= N(w)^2 <
      N(u)^2 <= 4/3 * Q(u), hence m^2 - |mn| + n^2 = 1, and w is +-u,
      +-v or +-(u +- v).
    The cost per basis does not grow with l, and any basis of a lattice,
    in normal form or not, gets its verdict.  ``InputError`` on a
    degenerate basis (det 0)."""
    entries = np.array(bases, dtype=np.int64).reshape(-1, 4)  # a copy, reduced in place
    ui, uj, vi, vj = entries.T
    degenerate = np.flatnonzero(ui * vj - vi * uj == 0)
    if degenerate.size:
        p1, q1, p2, q2 = entries[degenerate[0]].tolist()
        raise InputError(f"degenerate lattice basis {((p1, q1), (p2, q2))}")
    todo = np.arange(len(entries))
    while todo.size:
        a, b, c, d = ui[todo], uj[todo], vi[todo], vj[todo]
        qu, qv = 3 * a * a + b * b, 3 * c * c + d * d
        swap = qu > qv
        a, b, c, d = (np.where(swap, c, a), np.where(swap, d, b),
                      np.where(swap, a, c), np.where(swap, b, d))
        qu = np.minimum(qu, qv)
        m = (2 * (3 * a * c + b * d) + qu) // (2 * qu)
        c, d = c - m * a, d - m * b
        ui[todo], uj[todo], vi[todo], vj[todo] = a, b, c, d
        todo = todo[m != 0]
    shortest = np.minimum.reduce([_grid_norm(ui, uj), _grid_norm(vi, vj),
                                  _grid_norm(ui + vi, uj + vj), _grid_norm(ui - vi, uj - vj)])
    return shortest > l


def _sublattice_blocks(max_det: int, min_det: int = 0):
    """``even_sublattices(max_det, min_det)`` in blocks of whole
    determinant groups, each of at most ``_BLOCK_ENTRIES`` bases unless one
    group alone holds more: (dets, entries), int64 arrays of shape (k,)
    and (k, 4), one row (p1, q1, p2, q2) per basis.

    The pairs (n, a) with a | n come first, for every n of the range at
    once, ordered by n and then a; each block then expands its pairs into
    their d = n/a bases c = 0..d-1."""
    lo, hi = max(1, (min_det + 1) // 2), max_det // 2
    if hi < lo:
        return
    # the multiples n = a*k of each a with lo <= n <= hi: k runs up from
    # k0, the least, by the pair's place in its run of one a
    a = np.arange(1, hi + 1)
    k0 = -(-lo // a)
    count = np.maximum(hi // a - k0 + 1, 0)
    first = np.cumsum(count) - count
    a, k = np.repeat(a, count), np.repeat(k0 - first, count) + np.arange(count.sum())
    n = a * k
    order = np.lexsort((a, n))
    n, a = n[order], a[order]
    d = n // a
    # the pair index and the base count at the end of each group of one n
    pair_end = np.append(np.flatnonzero(np.diff(n)) + 1, len(n))
    base_end = np.cumsum(d)[pair_end - 1]
    done, group = 0, 0
    while group < len(pair_end):
        last = max(group, int(np.searchsorted(base_end, done + _BLOCK_ENTRIES, "right")) - 1)
        pairs = slice(pair_end[group - 1] if group else 0, pair_end[last])
        pn, pa, pd = n[pairs], a[pairs], d[pairs]
        which = np.repeat(np.arange(len(pd)), pd)
        c = np.arange(len(which)) - np.repeat(np.cumsum(pd) - pd, pd)
        pa, pd = pa[which], pd[which]
        yield 2 * pn[which], np.stack([pa + c, pa - c, pd, -pd], axis=1)
        done, group = int(base_end[last]), last + 1


def even_sublattices(max_det: int, min_det: int = 0):
    """Every sublattice of the even translation lattice with |det| (over
    the full cell lattice) from ``min_det`` to ``max_det``, exactly once,
    ordered by determinant and then lexicographically by normal-form
    entries; no smaller determinant is enumerated.

    In the even basis u1=(1,1), u2=(1,-1) the normal form is
    t1 = a*u1 + c*u2, t2 = d*u2 with a,d >= 1 and 0 <= c < d; the cell
    determinant is then 2ad.  Read from ``_sublattice_blocks``.
    """
    for dets, entries in _sublattice_blocks(max_det, min_det):
        for det, (p1, q1, p2, q2) in zip(dets.tolist(), entries.tolist()):
            yield det, ((p1, q1), (p2, q2))


def _image(g: tuple[Vertex, Vertex], t: Vertex) -> Vertex:
    """The even translation t under the linear map g, given as its images
    of the even basis (1, 1) and (1, -1)."""
    (p1, q1), (p2, q2) = g
    s, r = (t[0] + t[1]) // 2, (t[0] - t[1]) // 2
    return (s * p1 + r * p2, s * q1 + r * q2)


# R, the 60-degree rotation R(i, j) = ((i - j)/2, (3i + j)/2), and M, the
# mirror M(i, j) = (i, -j), as maps for ``_image``
_ROTATE = ((0, 2), (1, 1))
_MIRROR = ((1, -1), (1, 1))


def _point_group() -> list[tuple[Vertex, Vertex]]:
    """The 12 linear maps that R and M generate, in closure order; the
    first is the identity.

    Each lifts to an automorphism of the grid: R takes a right-handed cell
    u to R(u) + (-2, -1) and a left-handed one to R(u - (1, 0)) + (-2, 0),
    M takes them to M(u) + (-2, -2) and M(u - (1, 0)) + (-1, -2).  Such a
    lift moves every orbit of a lattice L onto an orbit of g(L), so the
    quotient graphs of L and g(L) are isomorphic and the separation
    filter gives both the same verdict.  Both maps keep Q(i, j) =
    3i^2 + j^2: Q((i - j)/2, (3i + j)/2) = 3i^2 + j^2, and M flips the
    sign of j."""
    group = [((1, 1), (1, -1))]
    for g in group:  # grows while it is read
        for step in (_ROTATE, _MIRROR):
            h = (_image(step, g[0]), _image(step, g[1]))
            if h not in group:
                group.append(h)
    return group


_POINT_GROUP = _point_group()
# one map of each pair +-g, as [g, k, :], the image under g of the even basis
# vector k, the identity first: -g(L) = g(L), because -L = L, so these six
# give every image
_IMAGE_MAPS = np.array([g for n, g in enumerate(_POINT_GROUP)
                        if tuple((-p, -q) for p, q in g) not in _POINT_GROUP[:n]], dtype=np.int64)

# the base of the orbit key's digits, above every det, a and b it encodes
_KEY_BASE = 1 << 21


def _orbit_keys(entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each row (p1, q1, p2, q2) of a (k, 4) array, a basis of a lattice
    of even translations with det below 2**21: the ``LatticeGeometry``
    entries (a, b, d) of its lattice and its orbit key, the least of
    (det * K + a) * K + b, K = ``_KEY_BASE``, over the normal forms of its
    images under ``_POINT_GROUP``.  Images keep det, and an orbit is
    the orbit of each of its lattices, so two lattices share a key iff the
    point group maps one onto the other.

    The normal forms come from ``lattice_geometry``'s Euclid run, made over
    all 6k image bases (x, y) at once in int64 arrays, on the vectors
    themselves: x, y = y, x - q*y with q = x_i // y_i keeps a basis of the
    image and ends with y_i = 0, so that x = (+-a, +-b) and y = (0, +-d)."""
    p1, q1, p2, q2 = entries.T
    group = _IMAGE_MAPS[:, :, :, None]
    # t = s*(1, 1) + r*(1, -1) goes to s*g(1, 1) + r*g(1, -1); the 6 images
    # of each basis are flattened, map by map
    (xi, xj), (yi, yj) = ((s * group[:, 0] + r * group[:, 1]).transpose(1, 0, 2).reshape(2, -1)
                          for s, r in (((p1 + q1) // 2, (p1 - q1) // 2),
                                       ((p2 + q2) // 2, (p2 - q2) // 2)))
    todo = np.flatnonzero(yi)
    while todo.size:
        a, b, c, d = xi[todo], xj[todo], yi[todo], yj[todo]
        q = a // c
        xi[todo], xj[todo], yi[todo], yj[todo] = c, d, a - q * c, b - q * d
        todo = todo[yi[todo] != 0]
    a, d = np.abs(xi), np.abs(yj)
    b = np.where(xi < 0, -xj, xj) % d
    keys = ((a * d * _KEY_BASE + a) * _KEY_BASE + b).reshape(len(group), -1)
    k = len(entries)
    return a[:k], b[:k], d[:k], keys.min(axis=0)


# the largest determinant the lattice searches enumerate, search_lattice's
# default: on a 2-vCPU Xeon the filter takes about 0.2 s over all 823,081
# bases up to it, at any l; search_lattice's packing bound passes it at
# l = 72, and search_periodic's default, 2 * span + 24, at l = 50
MAX_DET = 2000


def _admissible(l: int, min_det: int, max_det: int):
    """(det, basis, ``LatticeGeometry``, orbit key) of each lattice of
    ``even_sublattices(max_det, min_det)`` that passes the separation
    filter, in that order.  Each block of ``_sublattice_blocks`` is decided
    in one ``_separation_ok`` call, and its admissible bases get their
    normal forms and orbit keys (``_orbit_keys``) in one more array pass.
    ``ResourceGuard``, before any lattice is built, if ``max_det`` is above
    ``MAX_DET`` or l is above the BFS oracle's limit, which
    ``verify_lattice`` would meet."""
    if max_det > MAX_DET:
        raise ResourceGuard(f"period lattices up to determinant {max_det} exceed the "
                            f"limit of {MAX_DET}")
    _refuse_past_bfs_limit("l", l)
    for dets, entries in _sublattice_blocks(max_det, min_det):
        ok = _separation_ok(entries, l)
        dets, entries = dets[ok], entries[ok]
        if not len(entries):
            continue
        a, b, d, keys = (column.tolist() for column in _orbit_keys(entries))
        for det, (p1, q1, p2, q2), *geo, key in zip(dets.tolist(), entries.tolist(),
                                                    a, b, d, keys):
            yield det, ((p1, q1), (p2, q2)), LatticeGeometry(*geo), key


def search_lattice(l: int, max_det: int = MAX_DET) -> LatticeColoring | None:
    """Smallest single-coset periodic coloring valid for separation l.

    Enumerates sublattices of the even translation lattice in normal
    form by increasing determinant (= color count) up to ``max_det``
    and returns the first that passes the separation filter, or None.
    As in ``search_periodic``, ``verify_lattice`` checks the coloring
    first, and a rejection raises ``AssertionError``.  Pure and
    deterministic.  ``ResourceGuard`` if ``max_det`` is above ``MAX_DET``.

    The walk starts at the packing bound ceil(3 l'^2 / 8), l' the least
    even number above l, below which no lattice passes: N (``_grid_norm``)
    is even on even translations, so separation, min N > l, means min N >=
    l'; the open hexagons N(x - w) < l'/2 around the points w of L are then
    disjoint, and each has area 3/2 (l'/2)^2 = 3 l'^2 / 8, so det L is at
    least that.  A ``max_det`` below the bound enumerates nothing.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    even = l + 2 - l % 2
    for det, basis, _, _ in _admissible(l, -(-3 * even * even // 8), max_det):
        coloring = single_coset_coloring(l, basis)
        check = verify_lattice(coloring)
        if not check.valid:
            raise AssertionError(f"search produced an invalid coloring: {check.violations[:3]}")
        return coloring
    return None


@lru_cache(maxsize=32)
def _ball_offsets(l: int) -> np.ndarray:
    """The radius-l ball around (0, 0), as a read-only (2, m) array of
    offsets; ``ball`` refuses l above the BFS oracle's limit."""
    offsets = np.array(ball((0, 0), l)).T
    offsets.flags.writeable = False
    return offsets


@lru_cache(maxsize=32)
def _bfs_ball(l: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The radius-l ball but its centre, read from the BFS oracle, around a
    right-handed cell and around a left-handed cell (indexed by
    ``parity``): (2, m) offsets nearest first, and their distances;
    read-only, one pair per l."""
    out = []
    for field_ in (_handed_field(True, l), _handed_field(False, l)):
        xs, ys = np.nonzero((field_ > 0) & (field_ <= l))
        order = np.argsort(field_[xs, ys], kind="stable")
        offsets = np.stack([xs - (l + 1) // 2, ys - l])[:, order]
        dist = field_[xs, ys][order]
        offsets.flags.writeable = False
        dist.flags.writeable = False
        out.append((offsets, dist))
    return tuple(out)


def quotient_conflicts(geo: LatticeGeometry, l: int) -> list[int]:
    """Bitmask conflict graph over the fundamental domain of a lattice of
    even translations.

    Domain cells u and v conflict iff some cell within distance l of u
    lies in the orbit of v: exact, and symmetric as the lattice acts by
    automorphisms.  By ``_missed``, u conflicts with all orbits but its
    own and those of its ``_translated`` row, read in blocks of at most
    ``_BLOCK_ENTRIES`` entries (or one row)."""
    a, b, d, n = geo.a, geo.b, geo.d, geo.det
    if not (is_even_translation((a, b)) and is_even_translation((0, d))):
        raise InputError(f"{geo} is not a lattice of even translations")
    row = _missed(geo, l)
    step = max(1, _BLOCK_ENTRIES // n)
    adj: list[int] = []
    for first in range(0, n, step):
        u = np.arange(first, min(first + step, n))
        related = np.ones((len(u), n), dtype=bool)
        related[np.arange(len(u))[:, None], _translated(geo, u, row)] = False
        adj += bitmask_graph(related, first)
    return adj


def _missed(geo: LatticeGeometry, l: int) -> np.ndarray:
    """The orbit row: domain indices of the orbits that the radius-l ball
    around (0, 0) misses, its offsets reduced to the domain.  An even
    translation t carries the ball and the orbit of w to those around t
    and of t + w; the inversion (i, j) -> (1 - i, -j), a grid automorphism,
    then an even translation carry them to those around a left-handed u
    and of u - w (-L = L), as ``_translated`` does.  So every vertex of the
    quotient graph has m = len(row) non-neighbours: m = 0 is K_det, and
    m = 1 is K_det minus a perfect matching, of clique and chromatic number
    det/2, each cell paired with its one non-neighbour.

    DSATUR with a budget of at least det/(m + 1) colors these graphs as
    ``_paired_coloring`` does.  Only partners share a color, so of the
    k = min(used + 1, budget) colors a vertex may take it sees every used
    one, or all but its partner's once that is colored.  While a pair is
    untouched, each pick is thus the lowest vertex of the lowest such pair
    (ties go to the lowest index), and it opens a color; then each vertex
    left takes its partner's, its lowest free color: n + 1 nodes."""
    cx, cy = geo.canonical(_ball_offsets(l))
    return np.flatnonzero(np.bincount(cx * geo.d + cy, minlength=geo.det) == 0)


def _translated(geo: LatticeGeometry, u: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``_missed``'s row moved to the domain cells u, as (len(u), m) domain
    indices: canonical(u + w), or canonical(u - w) for a left-handed u."""
    (x, y), (wx, wy) = np.divmod(u[:, None], geo.d), np.divmod(row, geo.d)
    sign = 1 - 2 * parity((x, y))
    cx, cy = geo.canonical((x + sign * wx, y + sign * wy))
    return cx * geo.d + cy


def _paired_coloring(geo: LatticeGeometry, row: np.ndarray) -> list[int]:
    """0-based colors, in domain order, for a ``_missed`` row of m <= 1
    cells: one per cell and its ``_translated`` partner, if any, numbered
    in the order of the pairs' lowest cells."""
    cells = np.arange(geo.det)
    pairs = np.column_stack((cells, _translated(geo, cells, row)))
    return np.unique(pairs.min(axis=1), return_inverse=True)[1].tolist()


@dataclass
class PeriodicSearchResult:
    """Outcome of a periodic-coloring search that decided every lattice:
    the coloring (or None), its ``LatticeColoring.mode`` ("none" without
    one), the number of lattices tried and a search trace."""

    l: int
    target: int
    coloring: LatticeColoring | None
    mode: str  # "single-coset" | "multi-domain" | "none"
    lattices_tried: int = 0
    log: list = field(default_factory=list)


def search_periodic(l: int, colors: int | None = None,
                    max_det: int | None = None) -> PeriodicSearchResult:
    """Verified periodic coloring with at most ``colors`` colors (default:
    the span of even l): for each admissible period lattice (one that
    passes the separation filter, decided by ``_admissible`` a block of
    determinants at a time) of determinant ``colors`` to ``max_det``
    (default 2 * colors + 24), in ``even_sublattices`` order, solve the
    quotient coloring exactly with the color budget.  The first success
    wins, which keeps the search deterministic.  ``ResourceGuard``, before
    any lattice is built, if ``max_det`` is above ``MAX_DET`` or l above
    the BFS oracle's limit, and once DSATUR has spent ``MAX_NODES`` nodes
    over the whole call: no verdict, never a refutation.

    The orbit row (``_missed``) gives each vertex's m non-neighbours.  For
    m <= 1 the clique and chromatic numbers are det/(m + 1), so a lattice
    of det above (m + 1) * ``colors`` is rejected, and any other is colored
    from its row by ``_paired_coloring``, DSATUR's own coloring, with no
    graph built: at the span of even l = 8..40 DSATUR never runs, and the
    smallest admissible det's lattice, ``search_lattice``'s, has m = 0 (l =
    1..30), its cells colored in domain order as ``single_coset_coloring``
    does.  Graphs with m >= 2 face ``greedy_clique``, then DSATUR.  Both
    rejections log "clique exceeds".

    Lattices that the point group of the grid (``_point_group``) maps onto
    each other have isomorphic quotient graphs, so a lattice whose image
    was proven not colorable earlier in the same call (by a clique or an
    exhaustive DSATUR search) is passed over unbuilt; it counts in
    ``lattices_tried`` and logs "symmetric image of" the rejected basis.
    Each orbit is one integer key (``_orbit_keys``), so a rejection stores
    one key and each lattice tried looks one up.  No call keeps anything.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    target = span_even(l).span if colors is None else colors
    if target < 1:
        raise InputError(f"colors must be >= 1, got {target}")
    result = PeriodicSearchResult(l, target, None, "none")
    if max_det is None:
        max_det = 2 * target + 24
    # the orbit key of each lattice proven not colorable -> its basis
    rejected: dict[int, tuple] = {}
    nodes_left = MAX_NODES
    for det, basis, geo, key in _admissible(l, target, max_det):
        result.lattices_tried += 1
        line = f"det {det} basis {basis}"
        if key in rejected:
            result.log.append(f"{line}: symmetric image of {rejected[key]}")
            continue
        row = _missed(geo, l)
        m = len(row)
        adj = quotient_conflicts(geo, l) if m > 1 else None
        if (det > (m + 1) * target if adj is None
                else len(greedy_clique(adj, exceed=target)) > target):
            result.log.append(f"{line}: clique exceeds {target}")
            rejected[key] = basis
            continue
        if adj is None:
            solution = _paired_coloring(geo, row)
        else:
            try:
                solution, nodes = solve_coloring(adj, target, max_nodes=nodes_left)
            except ResourceGuard:
                raise ResourceGuard(
                    f"periodic search exceeded {MAX_NODES} nodes at {line}") from None
            nodes_left -= nodes
        if solution is None:
            result.log.append(f"{line}: not {target}-colorable")
            rejected[key] = basis
            continue
        cells = geo.cells()
        assignment = {cell: c + 1 for cell, c in zip(cells, solution)}
        coloring = LatticeColoring(l, basis, assignment)
        # fewer colors than the proven span (even l >= 8) is a contradiction
        if l % 2 == 0 and l >= 8 and coloring.color_count < span_even(l).span:
            raise AssertionError(
                f"quotient used {coloring.color_count} colors below the span of l={l}"
            )
        check = verify_lattice(coloring)
        if not check.valid:
            raise AssertionError(f"search produced an invalid coloring: {check.violations[:3]}")
        result.coloring = coloring
        result.mode = coloring.mode
        result.log.append(f"{line}: success")
        return result
    return result


def materialize_window(coloring: LatticeColoring, radius: int) -> WindowColoring:
    """Restrict a periodic coloring to the radius window around (0, 0)."""
    cells = ball((0, 0), radius)
    return WindowColoring(coloring.l, {v: coloring.color_of(v) for v in cells})


def window_conflicts(cells: list[Vertex], l: int) -> list[int]:
    """Bitmask graph over ``cells`` joining pairs at distance <= l, built in
    blocks of rows, so that no distance matrix holds more than
    ``_BLOCK_ENTRIES`` entries (or one row, if a row alone holds more):
    the reuse battery's largest graph, its p = 12 annulus, has 594 cells,
    and its whole 594 x 594 int64 matrix and the bool matrix read off it
    (3.2 MB) would outweigh the finished bitmask graph (67 KB) more than
    forty times."""
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    step = max(1, _BLOCK_ENTRIES // max(len(arr), 1))
    adj: list[int] = []
    for first in range(0, len(arr), step):
        adj += bitmask_graph(pairwise_distances(arr[first:first + step], arr) <= l, first)
    return adj


@dataclass
class WindowSearchResult:
    l: int
    radius: int
    budget: int
    feasible: bool
    coloring: WindowColoring | None
    certificate: str

    def to_dict(self) -> dict:
        return {"l": self.l, "radius": self.radius, "budget": self.budget,
                "feasible": self.feasible, "certificate": self.certificate}


MAX_WINDOW_CELLS = 200  # the largest window the tests and benchmark decide has 199


def _window(l: int, radius: int) -> list[Vertex]:
    """The radius window's cells around (0, 0), refused before any is built
    above the BFS oracle's limit on l or above ``MAX_WINDOW_CELLS`` cells."""
    if l < 1 or radius < 0:
        raise InputError(f"l must be >= 1 and radius >= 0, got l={l}, radius={radius}")
    _refuse_past_bfs_limit("l", l)
    if ball_size(radius) > MAX_WINDOW_CELLS:
        raise ResourceGuard(f"window of {ball_size(radius)} cells exceeds the limit of "
                            f"{MAX_WINDOW_CELLS}")
    return ball((0, 0), radius)


def exact_window_span(l: int, radius: int, budget: int) -> WindowSearchResult:
    """Exact decision: can the radius window be colored with ``budget``
    colors under separation l?  Infeasibility at budget B is a proof
    that the whole grid needs at least B+1 colors.  A coloring found is
    rechecked (cover, budget, ``verify_window``) before it is returned.

    A window past ``_window``'s limits is refused unbuilt, and a search
    past ``MAX_NODES`` nodes raises ``ResourceGuard``: a refusal, never infeasible.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    cells = _window(l, radius)
    adj = window_conflicts(cells, l)
    clique = greedy_clique(adj)
    if len(clique) > budget:
        return WindowSearchResult(
            l, radius, budget, False, None,
            f"clique of {len(clique)} mutually conflicting cells exceeds budget",
        )
    solution, _ = solve_coloring(adj, budget)
    if solution is None:
        return WindowSearchResult(l, radius, budget, False, None,
                                  "exhaustive branch and bound")
    if len(solution) != len(cells) or min(solution) < 0 or max(solution) >= budget:
        raise AssertionError(f"solver answer is no {budget}-coloring of the {len(cells)} cells")
    coloring = WindowColoring(l, {cell: c + 1 for cell, c in zip(cells, solution)})
    check = verify_window(coloring)
    if not check.valid:
        raise AssertionError(f"solver produced an invalid window coloring: {check.violations[:3]}")
    return WindowSearchResult(l, radius, budget, True, coloring, "explicit coloring")


def export_dimacs(l: int, radius: int) -> str:
    """DIMACS edge-format text of the l-th power graph of the radius
    window (``_window``'s limits): all cells, one edge per pair at distance <= l.
    The edges are read off the whole distance matrix, at most
    ``MAX_WINDOW_CELLS`` squared entries (320 KB)."""
    cells = np.array(sorted(_window(l, radius)), dtype=np.int64)
    n = len(cells)
    edges = np.argwhere(np.triu(pairwise_distances(cells) <= l, 1)) + 1
    # one %-format per section over flat ints, much faster than a string per line
    vertices = np.column_stack((np.arange(1, n + 1), cells))
    return (f"c hexspan power graph: separation l={l}, window radius {radius}\n"
            "c vertex ids map to cells as:\n"
            + "c vertex %d %d %d\n" * n % tuple(vertices.ravel().tolist())
            + f"p edge {n} {len(edges)}\n"
            + "e %d %d\n" * len(edges) % tuple(edges.ravel().tolist()))


def _squeeze(coords: list[int], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Small non-negative stand-ins for ``coords``, and for their distinct
    values in ascending order: every gap between consecutive distinct
    values above ``cap`` shrinks to cap or cap + 1, whichever keeps its
    parity.  Order, parity and every difference below ``cap`` survive, and
    no larger difference falls below ``cap``, however far apart the values
    are."""
    distinct = sorted(set(coords))
    at, prev = distinct[0] % 2, distinct[0]
    small = {}
    for x in distinct:
        gap = x - prev
        at += gap if gap <= cap else cap + (gap - cap) % 2
        small[x], prev = at, x
    return (np.array([small[x] for x in coords], dtype=np.int64),
            np.array(list(small.values()), dtype=np.int64))


def verify_window(coloring: WindowColoring) -> VerifyResult:
    """Check every pair of window cells at distance <= l for a color clash,
    on the closed form, stopping at the first 1000 clashes.

    Every pair u < v whose offset v - u lies in the box |di| <= l//2 + 1,
    |dj| <= l (which holds every cell within distance l) is a candidate;
    ``checked`` counts the candidates, and violations come in (u, v) order.
    Cells are keyed in a compressed layout and sorted, so that u's
    candidates in each row of its box are one run of keys, found by
    ``searchsorted``.  The same run of a color-major index lists the
    candidates of u's color, and only those pairs are measured: in blocks
    of cells whose (cells x rows) run tables hold at most ``_BLOCK_ENTRIES``
    entries, so that a window of a few thousand cells at small l is one
    block, and at most ``_BLOCK_ENTRIES`` pairs at a time.  When the cap is
    hit, ``checked`` counts the candidates up to the 1000th clash.
    ``ResourceGuard`` if l is above the BFS oracle's limit, the bound that
    lattice files have too."""
    l = coloring.l
    _refuse_past_bfs_limit("l", l)
    cells = sorted(coloring.assignment)
    if not cells:
        return VerifyResult(True, [], 0)
    n = len(cells)
    reach_i = l // 2 + 1
    # gaps capped just past the box keep the key order and every in-box
    # offset, and the key width keeps each row's run of keys in that row
    ii, rows = _squeeze([i for i, _ in cells], reach_i + 1)
    jj, _ = _squeeze([j for _, j in cells], l + 1)
    width = int(jj.max()) + l + 1
    keys = ii * width + jj
    palette: dict[int, int] = {}
    code = np.array([palette.setdefault(coloring.assignment[c], len(palette)) for c in cells])
    # the cells of color c with index in [lo, hi) are the run of
    # [base + lo, base + hi) in by_color, base = c(n+1)
    base = code * (n + 1)
    by_color = np.sort(base + np.arange(n))
    # the rows r within reach_i of u's own: own[u] <= r < top[u]
    own = np.searchsorted(rows, ii)
    top = np.searchsorted(rows, ii + reach_i, "right")
    ahead = np.arange(int((top - own).max()))
    step = max(1, _BLOCK_ENTRIES // ahead.size)
    violations: list[Violation] = []
    checked = 0
    for first in range(0, n, step):
        u = slice(first, first + step)
        r = own[u, None] + ahead
        # a row past top gets a centre below every key: an empty run
        centre = np.where(r < top[u, None], np.take(rows, r, mode="clip") * width + jj[u, None],
                          -width)
        # runs [lo, hi) of keys, and of by_color, stacked on the last axis
        runs = np.searchsorted(keys, centre[:, :, None] + (-l, l + 1))
        runs[:, 0, 0] = np.arange(first + 1, first + 1 + len(runs))  # own row: the cells after u
        start, stop = np.searchsorted(by_color, base[u, None, None] + runs).reshape(-1, 2).T
        # the runs, in (u, row) order, hold their pairs in (u, v) order;
        # pair p lies in run k = the first with ends[k] > p
        ends = np.cumsum(stop - start)
        for p0 in range(0, int(ends[-1]), _BLOCK_ENTRIES):
            p = np.arange(p0, min(p0 + _BLOCK_ENTRIES, int(ends[-1])))
            k = np.searchsorted(ends, p, "right")
            a, b = first + k // ahead.size, by_color[stop[k] - ends[k] + p] % (n + 1)
            dist = distance_closed_array(ii[a], jj[a], ii[b], jj[b])
            clash = dist <= l
            for x, y, d in zip(a[clash].tolist(), b[clash].tolist(), dist[clash].tolist()):
                violations.append(Violation(cells[x], cells[y], d, coloring.assignment[cells[x]]))
                if len(violations) == 1000:
                    x -= first  # the cells before u, and u's runs cut at v
                    return VerifyResult(False, violations, checked + int(
                        np.diff(runs[:x]).sum() + np.diff(np.minimum(runs[x], y + 1)).sum()))
        checked += int(np.diff(runs).sum())
    return VerifyResult(not violations, violations, checked)


# ---------------------------------------------------------------------------
# Coloring files: line-oriented text format "hexcolor v1"
# ---------------------------------------------------------------------------


class ColoringFormatError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_coloring(coloring: LatticeColoring | WindowColoring) -> str:
    lines = ["hexcolor v1", f"l {coloring.l}"]
    if isinstance(coloring, LatticeColoring):
        (a1, b1), (a2, b2) = coloring.basis
        lines.append(f"lattice {a1} {b1} {a2} {b2}")
    else:
        lines.append("window")
    for (i, j), color in sorted(coloring.assignment.items()):
        lines.append(f"cell {i} {j} {color}")
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> LatticeColoring | WindowColoring:
    l: int | None = None
    basis: tuple[Vertex, Vertex] | None = None
    is_window = False
    saw_header = False
    saw_kind = False
    cells: dict[Vertex, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_header:
            if tokens != ["hexcolor", "v1"]:
                raise ColoringFormatError(line_no, "expected header 'hexcolor v1'")
            saw_header = True
            continue
        if tokens[0] == "l":
            if l is not None or len(tokens) != 2:
                raise ColoringFormatError(line_no, "expected a single 'l <int>' line")
            try:
                l = int(tokens[1])
            except ValueError:
                raise ColoringFormatError(line_no, f"bad integer {tokens[1]!r}")
            if l < 1:
                raise ColoringFormatError(line_no, "l must be >= 1")
        elif tokens[0] == "lattice":
            if saw_kind or len(tokens) != 5:
                raise ColoringFormatError(line_no, "expected 'lattice <a1> <b1> <a2> <b2>'")
            try:
                a1, b1, a2, b2 = (int(t) for t in tokens[1:])
            except ValueError:
                raise ColoringFormatError(line_no, "lattice entries must be integers")
            basis = ((a1, b1), (a2, b2))
            saw_kind = True
        elif tokens[0] == "window":
            if saw_kind or len(tokens) != 1:
                raise ColoringFormatError(line_no, "expected bare 'window' line")
            is_window = True
            saw_kind = True
        elif tokens[0] == "cell":
            if not saw_kind or len(tokens) != 4:
                raise ColoringFormatError(line_no, "expected 'cell <i> <j> <color>'")
            try:
                i, j, color = (int(t) for t in tokens[1:])
            except ValueError:
                raise ColoringFormatError(line_no, "cell entries must be integers")
            if color < 1:
                raise ColoringFormatError(line_no, "colors are 1-based positive integers")
            if (i, j) in cells:
                raise ColoringFormatError(line_no, f"duplicate cell ({i}, {j})")
            cells[(i, j)] = color
        else:
            raise ColoringFormatError(line_no, f"unknown directive {tokens[0]!r}")
    if not saw_header:
        raise ColoringFormatError(1, "empty file")
    if l is None:
        raise ColoringFormatError(1, "missing 'l' line")
    if not saw_kind:
        raise ColoringFormatError(1, "missing 'lattice' or 'window' line")
    if not cells:
        raise ColoringFormatError(1, "no cells")
    if is_window:
        return WindowColoring(l, cells)
    try:
        geo = lattice_geometry(basis)
    except ValueError as exc:
        raise ColoringFormatError(1, str(exc))
    for t in basis:
        if not is_even_translation(t):
            raise ColoringFormatError(1, f"lattice vector {t} has odd coordinate sum")
    canonical = {geo.canonical(cell): color for cell, color in cells.items()}
    if len(canonical) != len(cells):
        raise ColoringFormatError(1, "two cells fall in the same lattice orbit")
    if len(canonical) != geo.det:
        raise ColoringFormatError(1, "cells do not cover the fundamental domain")
    return LatticeColoring(l, basis, canonical)


def read_coloring_file(path) -> LatticeColoring | WindowColoring:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ColoringFormatError(1, f"not UTF-8 text: {exc}") from None
    return read_coloring(text)


def write_coloring_file(coloring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_coloring(coloring))
