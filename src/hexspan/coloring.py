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
  solved by the branch-and-bound engine.

Periodic checks read one orbit table: the search with the ring-formula
ball, ``verify_lattice`` with the BFS ball.  ``verify_window`` stays on
the closed form, so the two verifiers share no distance code: it reads
each cell's candidates as runs of sorted keys, and measures only the
pairs of one color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InputError, ResourceGuard
from .grid import (
    Vertex,
    _handed_fields,
    _refuse_past_bfs_limit,
    distance_closed_array,
    pairwise_distances,
    parity,
)
from .rings import ball, ball_size
from .solver import bitmask_edges, bitmask_graph, greedy_clique, solve_coloring
from .spans import span_even


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y; a loop, so that the
    entries of a coloring file cannot exhaust the recursion limit."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    s = 1 if a >= 0 else -1
    return abs(a), s * x0, s * y0


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
    (p1, q1), (p2, q2) = basis
    det = p1 * q2 - p2 * q1
    if det == 0:
        raise InputError(f"degenerate lattice basis {basis}")
    det = abs(det)
    g, alpha, beta = _egcd(p1, p2)
    a = abs(g)
    b = alpha * q1 + beta * q2
    d = det // a
    return LatticeGeometry(a, b % d, d)


@dataclass
class LatticeColoring:
    """Periodic coloring: colors assigned on the fundamental domain of
    the sublattice spanned by ``basis`` and repeated with that period."""

    l: int
    basis: tuple[Vertex, Vertex]
    assignment: dict[Vertex, int]

    def __post_init__(self) -> None:
        for t in self.basis:
            if (t[0] + t[1]) % 2 != 0:
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


def _orbit_index(geo: LatticeGeometry, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The orbit table: [r, m] is the domain index of canonical(u + o) for
    domain cell u = divmod(rows[r], d) and offset o = offsets[:, m]."""
    xs, ys = np.divmod(rows, geo.d)
    cx, cy = geo.canonical((xs[:, None] + offsets[0], ys[:, None] + offsets[1]))
    return cx * geo.d + cy


# lookups per verify_lattice block, and pairs per verify_window chunk:
# 128 KiB temporaries, at l = 40 twice as fast as 2**16
_BLOCK_LOOKUPS = 1 << 14


def verify_lattice(coloring: LatticeColoring) -> VerifyResult:
    """Full periodic check: domain cell u clashes with k, of its color, if
    canonical(u + o) = k for some o != 0 in the BFS ball of u's handedness
    (k = u, separation, is checked from (0, 0) only).  Only cells whose
    color repeats are looked up, in blocks of rows; a pair is reported
    once, from its lower index, at its nearest ball cell.  ``checked``
    counts lookups; the check stops at 100 violations.  ``InputError`` if
    the assignment does not cover the domain, ``ResourceGuard`` if l is
    above the BFS limit."""
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
        step = max(1, _BLOCK_LOOKUPS // max(dist.size, 1))
        for start in range(0, len(own), step):
            u = own[start:start + step]
            index = _orbit_index(geo, u[:, 0], offsets)
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


def _separation_ok(bases: list[tuple[Vertex, Vertex]], l: int) -> np.ndarray:
    """One verdict per basis: True iff no cell of the radius-l ball around
    (0, 0) but the centre lies in its orbit, that is, no nonzero lattice
    vector (an even translation, so an automorphism) moves any cell by l
    or less.

    The orbit of (0, 0) is the lattice: even vectors, with -t for each t,
    and -t is as far from (0, 0) as t.  So only one of each pair +-t of
    nonzero even ball offsets is looked up.  The bases are decided
    together, at most ``_BLOCK_LOOKUPS`` lookups at a time:
    ``LatticeGeometry.canonical``, broadcast over a column of (a, b, d)
    per basis, reads those offsets' orbit-table row of (0, 0) for every
    lattice of a block in one pass."""
    i, j = offsets = _ball_offsets(l)[0]
    half = offsets[:, ((i + j) % 2 == 0) & ((i > 0) | (i == 0) & (j > 0))]
    abd = np.array([(g.a, g.b, g.d) for g in map(lattice_geometry, bases)],
                   dtype=np.int64).reshape(-1, 3)
    step = max(1, _BLOCK_LOOKUPS // max(half.shape[1], 1))
    ok = np.empty(len(abd), dtype=bool)
    for first in range(0, len(abd), step):
        cx, cy = LatticeGeometry(*abd[first:first + step].T[:, :, None]).canonical(half)
        ok[first:first + step] = ~((cx == 0) & (cy == 0)).any(axis=1)
    return ok


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def even_sublattices(max_det: int, min_det: int = 0):
    """Every sublattice of the even translation lattice with |det| (over
    the full cell lattice) from ``min_det`` to ``max_det``, exactly once,
    ordered by determinant and then lexicographically by normal-form
    entries; no smaller determinant is enumerated.

    In the even basis u1=(1,1), u2=(1,-1) the normal form is
    t1 = a*u1 + c*u2, t2 = d*u2 with a,d >= 1 and 0 <= c < d; the cell
    determinant is then 2ad.
    """
    for n in range(max(1, (min_det + 1) // 2), max_det // 2 + 1):
        for a in _divisors(n):
            d = n // a
            for c in range(d):
                t1 = (a + c, a - c)
                t2 = (d, -d)
                yield 2 * n, (t1, t2)


# the largest determinant the lattice searches enumerate: on a 2-vCPU Xeon
# search_lattice(100, 2000) filters all 823,081 bases up to det 2000 in
# 49 s, and search_periodic's default bound, 2 * span + 24, reaches 2000
# at l = 50
MAX_DET = 2000

# the most separation-filter lookups a lattice search may need: the bases
# up to determinant 2N number sum(sigma(n), n <= N) = sum(k * (N // k),
# k <= N) <= N**2, and each looks up the half-ball, one of each pair +-t
# of the even offsets within l, 3M(M + 1)/2 for M = l // 2 (ring k holds
# 3k cells, and the even offsets are the even rings).  The bound of
# search_lattice(100, 2000), which made 3.15e9 lookups in 49 s, is
# 10**6 * 3,825 and is accepted; at l = 1000 it is about 100 times that
MAX_FILTER_LOOKUPS = 4 * 10 ** 9


def _admissible(l: int, min_det: int, max_det: int):
    """(det, basis) of each lattice of ``even_sublattices(max_det,
    min_det)`` that passes the separation filter, in that order; the bases
    of one determinant are decided in one ``_separation_ok`` call.
    ``ResourceGuard``, before any lattice is built, if ``max_det`` is above
    ``MAX_DET`` or the filter's lookups may pass ``MAX_FILTER_LOOKUPS``."""
    if max_det > MAX_DET:
        raise ResourceGuard(f"period lattices up to determinant {max_det} exceed the "
                            f"limit of {MAX_DET}")
    m = l // 2
    lookups = (max(max_det, 0) // 2) ** 2 * (3 * m * (m + 1) // 2)
    if lookups > MAX_FILTER_LOOKUPS:
        raise ResourceGuard(f"period lattices up to determinant {max_det} at l = {l} need up "
                            f"to {lookups} separation lookups, above the limit of "
                            f"{MAX_FILTER_LOOKUPS}")
    for det, group in groupby(even_sublattices(max_det, min_det), key=itemgetter(0)):
        bases = [basis for _, basis in group]
        for basis, ok in zip(bases, _separation_ok(bases, l)):
            if ok:
                yield det, basis


def search_lattice(l: int, max_index: int) -> LatticeColoring | None:
    """Smallest single-coset periodic coloring valid for separation l.

    Enumerates sublattices of the even translation lattice in normal
    form by increasing determinant (= color count) up to ``max_index``
    and returns the first valid one, or None.  Pure and deterministic.
    ``ResourceGuard`` if ``max_index`` is above ``MAX_DET``.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    for det, basis in _admissible(l, 0, max_index):
        return single_coset_coloring(l, basis)
    return None


@lru_cache(maxsize=32)
def _ball_offsets(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the radius-l ball around a right-handed cell and around
    a left-handed cell, as (2, m) arrays indexed by ``parity``;
    ``ResourceGuard`` above the BFS oracle's limit, as for ``_bfs_ball``."""
    _refuse_past_bfs_limit("l", l)
    out = []
    for rep in ((0, 0), (1, 0)):
        offsets = np.array([(i - rep[0], j - rep[1]) for i, j in ball(rep, l)]).T
        offsets.flags.writeable = False
        out.append(offsets)
    return out[0], out[1]


@lru_cache(maxsize=32)
def _bfs_ball(l: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The radius-l ball but its centre, read from the BFS oracle, around a
    right-handed cell and around a left-handed cell (indexed by
    ``parity``): (2, m) offsets nearest first, and their distances;
    read-only, one pair per l."""
    out = []
    for field_ in _handed_fields(l):
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
    lies in the orbit of v: the orbit table of u's row, with the
    ring-formula ball offsets of its handedness, lists v.  The rule is
    exact, and symmetric because the lattice acts by automorphisms.  Every
    row is read, in blocks of rows of at most ``_BLOCK_LOOKUPS`` lookups."""
    a, b, d, n = geo.a, geo.b, geo.d, geo.det
    if (a + b) % 2 or d % 2:
        raise InputError(f"{geo} is not a lattice of even translations")
    step = max(1, _BLOCK_LOOKUPS // ball_size(l))
    adj: list[int] = []
    for first in range(0, n, step):
        u = np.arange(first, min(first + step, n))
        related = np.zeros((len(u), n), dtype=bool)
        for hand, offsets in enumerate(_ball_offsets(l)):
            mine = np.flatnonzero(parity(np.divmod(u, d)) == hand)
            related[mine[:, None], _orbit_index(geo, u[mine], offsets)] = True
        adj += bitmask_graph(related, first)
    return adj


def _covered(geo: LatticeGeometry, l: int) -> bool:
    """True iff the quotient graph is complete: the radius-l ball around
    (0, 0) meets all det orbits.  Each orbit-table row lists its own cell,
    and even translations permute the orbits, carrying (0, 0) to every
    right-handed cell and (1, 0) to every left-handed one.  The inversion
    (i, j) -> (1 - i, -j), a grid automorphism that swaps handedness,
    takes the ball around (0, 0) onto that around (1, 0) and orbits onto
    orbits (-L = L), so this one row decides every row."""
    row = _orbit_index(geo, np.zeros(1, dtype=np.int64), _ball_offsets(l)[0])
    return bool(np.bincount(row.ravel(), minlength=geo.det).all())


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
    """The 12 linear maps that R and M generate, in closure order.

    Each lifts to an automorphism of the grid: R takes a right-handed cell
    u to R(u) + (-2, -1) and a left-handed one to R(u - (1, 0)) + (-2, 0),
    M takes them to M(u) + (-2, -2) and M(u - (1, 0)) + (-1, -2).  Such a
    lift moves every orbit of a lattice L onto an orbit of g(L), so the
    quotient graphs of L and g(L) are isomorphic and the separation
    filter gives both the same verdict."""
    group = [((1, 1), (1, -1))]
    for g in group:  # grows while it is read
        for step in (_ROTATE, _MIRROR):
            h = (_image(step, g[0]), _image(step, g[1]))
            if h not in group:
                group.append(h)
    return group


_POINT_GROUP = _point_group()


def _orbit(basis: tuple[Vertex, Vertex]) -> set[LatticeGeometry]:
    """The normal forms of the images of the lattice under the point group."""
    return {lattice_geometry((_image(g, basis[0]), _image(g, basis[1])))
            for g in _POINT_GROUP}


@dataclass
class PeriodicSearchResult:
    """Outcome of a periodic-coloring search: the coloring (or None), its
    ``LatticeColoring.mode`` ("none" without one), a search trace, and the
    lattices skipped at the node limit, which leave a search undecided."""

    l: int
    target: int
    coloring: LatticeColoring | None
    mode: str  # "single-coset" | "multi-domain" | "none"
    lattices_tried: int = 0
    undecided: int = 0
    log: list = field(default_factory=list)


def search_periodic(l: int, colors: int | None = None,
                    max_det: int | None = None) -> PeriodicSearchResult:
    """Verified periodic coloring with at most ``colors`` colors (default:
    the span of even l): for each admissible period lattice (one that
    passes the separation filter, decided per determinant by
    ``_separation_ok``) of determinant ``colors`` to ``max_det`` (default
    2 * colors + 24), in ``even_sublattices`` order, solve the quotient
    coloring exactly with the color budget, giving up on a lattice after
    ``MAX_NODES`` search nodes.  The first success wins, which keeps the
    search deterministic.  ``ResourceGuard``, before any lattice is built,
    if ``max_det`` is above ``MAX_DET``.

    A lattice of det above ``colors`` with a complete quotient graph
    (``_covered``) is a clique of det cells, rejected without building the
    graph: at the span of even l = 8..40 only the success lattice's graph
    is built.  Other graphs face ``greedy_clique``, then DSATUR.  Both
    rejections log "clique exceeds" the target.

    Lattices that the point group of the grid (``_point_group``) maps onto
    each other have isomorphic quotient graphs, so a lattice whose image
    was proven not colorable earlier in the same call (by a clique or an
    exhaustive DSATUR search) is skipped; it counts in ``lattices_tried``
    and logs "symmetric image of" the rejected basis.  A node-limit skip
    proves nothing and is never reused; no call keeps anything.

    If ``colors`` is the smallest admissible determinant, the first
    lattice is ``search_lattice``'s; its quotient graph is complete
    (checked for l = 1..30), so DSATUR, all saturations and degrees tied,
    colors the cells in domain order, as ``single_coset_coloring`` does.
    """
    target = span_even(l).span if colors is None else colors
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    if target < 1:
        raise InputError(f"colors must be >= 1, got {target}")
    result = PeriodicSearchResult(l, target, None, "none")
    if max_det is None:
        max_det = 2 * target + 24
    # the normal form of every image of a lattice proven not colorable ->
    # that lattice's basis: one lookup per lattice tried, 12 forms per proof
    rejected: dict[LatticeGeometry, tuple] = {}
    for det, basis in _admissible(l, target, max_det):
        result.lattices_tried += 1
        geo = lattice_geometry(basis)
        line = f"det {det} basis {basis}"
        if geo in rejected:
            result.log.append(f"{line}: symmetric image of {rejected[geo]}")
            continue
        adj = None if det > target and _covered(geo, l) else quotient_conflicts(geo, l)
        if adj is None or len(greedy_clique(adj, exceed=target)) > target:
            result.log.append(f"{line}: clique exceeds {target}")
            rejected.update(dict.fromkeys(_orbit(basis), basis))
            continue
        try:
            solution = solve_coloring(adj, target)
        except ResourceGuard:
            result.undecided += 1
            result.log.append(f"{line}: node limit, skipped")
            continue
        if solution is None:
            result.log.append(f"{line}: not {target}-colorable")
            rejected.update(dict.fromkeys(_orbit(basis), basis))
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


# rows of a distance graph per distance matrix: the reuse battery's
# largest graph, its p = 12 annulus, has 594 cells; its whole 594 x 594
# int64 matrix and the bool matrix read off it (3.2 MB) would outweigh
# the finished bitmask graph (67 KB) more than forty times
_BLOCK = 64


def window_conflicts(cells: list[Vertex], l: int) -> list[int]:
    """Bitmask graph over ``cells`` joining pairs at distance <= l, built
    ``_BLOCK`` rows at a time, so that no distance matrix holds more than
    _BLOCK x len(cells) entries."""
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    adj: list[int] = []
    for first in range(0, len(arr), _BLOCK):
        adj += bitmask_graph(pairwise_distances(arr[first:first + _BLOCK], arr) <= l, first)
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
    past ``MAX_NODES`` nodes raises ``ResourceGuard``: undecided, never infeasible.
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
    solution = solve_coloring(adj, budget)
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
    window (``_window``'s limits): all cells, one edge per pair at distance <= l."""
    cells = sorted(_window(l, radius))
    edges = bitmask_edges(window_conflicts(cells, l))
    lines = [f"c hexspan power graph: separation l={l}, window radius {radius}",
             "c vertex ids map to cells as:"]
    lines += [f"c vertex {idx + 1} {i} {j}" for idx, (i, j) in enumerate(cells)]
    lines.append(f"p edge {len(cells)} {len(edges)}")
    lines += [f"e {a + 1} {b + 1}" for a, b in edges]
    return "\n".join(lines) + "\n"


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
    candidates of u's color, and only those pairs are measured, ``_BLOCK``
    cells and at most ``_BLOCK_LOOKUPS`` pairs at a time.  When the cap is
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
    violations: list[Violation] = []
    checked = 0
    for first in range(0, n, _BLOCK):
        u = slice(first, first + _BLOCK)
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
        for p0 in range(0, int(ends[-1]), _BLOCK_LOOKUPS):
            p = np.arange(p0, min(p0 + _BLOCK_LOOKUPS, int(ends[-1])))
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
        if (t[0] + t[1]) % 2 != 0:
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
