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
the closed form, so the two verifiers share no distance code: it takes
one numpy pass per offset of the candidate box, over all cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, ResourceGuard
from .grid import (
    DISTANCE_BFS_LIMIT,
    Vertex,
    _handed_fields,
    distance_closed,
    distance_closed_array,
    pairwise_distances,
    parity,
)
from .rings import ball
from .solver import bitmask_graph, greedy_clique, solve_coloring
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


# lookups per verify_lattice block: 128 KiB temporaries, at l = 40 twice as fast as 2**16
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


def _separation_ok(basis: tuple[Vertex, Vertex], l: int) -> bool:
    """True iff no cell of the radius-l ball around (0, 0) but the centre
    lies in its orbit: no nonzero lattice vector (an even translation, so
    an automorphism) moves any cell by l or less."""
    index = _orbit_index(lattice_geometry(basis), np.zeros(1, dtype=int), _ball_offsets(l)[0])
    return np.count_nonzero(index == 0) == 1


def _divisors(n: int) -> list[int]:
    out = [k for k in range(1, n + 1) if n % k == 0]
    return out


def even_sublattices(max_det: int):
    """Every sublattice of the even translation lattice with |det| (over
    the full cell lattice) at most ``max_det``, exactly once, ordered by
    determinant and then lexicographically by normal-form entries.

    In the even basis u1=(1,1), u2=(1,-1) the normal form is
    t1 = a*u1 + c*u2, t2 = d*u2 with a,d >= 1 and 0 <= c < d; the cell
    determinant is then 2ad.
    """
    for n in range(1, max_det // 2 + 1):
        for a in _divisors(n):
            d = n // a
            for c in range(d):
                t1 = (a + c, a - c)
                t2 = (d, -d)
                yield 2 * n, (t1, t2)


def search_lattice(l: int, max_index: int) -> LatticeColoring | None:
    """Smallest single-coset periodic coloring valid for separation l.

    Enumerates sublattices of the even translation lattice in normal
    form by increasing determinant (= color count) up to ``max_index``
    and returns the first valid one, or None.  Pure and deterministic.
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    for det, basis in even_sublattices(max_index):
        if _separation_ok(basis, l):
            return single_coset_coloring(l, basis)
    return None


@lru_cache(maxsize=None)
def _ball_offsets(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the radius-l ball around a right-handed cell and around
    a left-handed cell, as (2, m) arrays indexed by ``parity``."""
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
    """Bitmask conflict graph over the fundamental domain.

    Domain cells u and v conflict iff some cell within distance l of u
    lies in the orbit of v: the orbit table of u's row, with the
    ring-formula ball offsets of its handedness, lists v.  The rule is
    exact, and symmetric because the lattice acts by automorphisms."""
    n = geo.det
    rows = np.arange(n)
    related = np.zeros((n, n), dtype=bool)
    for hand, offsets in enumerate(_ball_offsets(l)):
        block = rows[parity(np.divmod(rows, geo.d)) == hand]
        related[block[:, None], _orbit_index(geo, block, offsets)] = True
    return bitmask_graph(related)


@dataclass
class PeriodicSearchResult:
    """Outcome of a periodic-coloring search: the coloring (or None),
    its ``LatticeColoring.mode`` ("none" without one), and a search
    trace."""

    l: int
    target: int
    coloring: LatticeColoring | None
    mode: str  # "single-coset" | "multi-domain" | "none"
    lattices_tried: int = 0
    log: list = field(default_factory=list)


def search_periodic(l: int, colors: int | None = None,
                    max_det: int | None = None) -> PeriodicSearchResult:
    """Verified periodic coloring with at most ``colors`` colors (default:
    the span of even l).

    Tries the single-coset mode first; if no sublattice of determinant
    ``colors`` works (for even l none can, since even translations move
    cells even distances), falls back to the multi-domain mode: for
    each admissible period lattice of determinant at least ``colors``,
    in determinant order, solve the quotient coloring exactly with the
    color budget, giving up on a lattice after 5,000,000 search nodes.
    The first success wins, which keeps the search deterministic.
    """
    target = span_even(l).span if colors is None else colors
    single = search_lattice(l, max_index=target)
    if single is not None and single.det == target:
        return PeriodicSearchResult(l, target, single, "single-coset", 1)
    result = PeriodicSearchResult(l, target, None, "none")
    if max_det is None:
        max_det = 2 * target + 24
    for det, basis in even_sublattices(max_det):
        if det < target:
            continue
        if not _separation_ok(basis, l):
            continue
        result.lattices_tried += 1
        geo = lattice_geometry(basis)
        adj = quotient_conflicts(geo, l)
        if len(greedy_clique(adj, exceed=target)) > target:
            result.log.append(f"det {det} basis {basis}: clique exceeds {target}")
            continue
        try:
            solution = solve_coloring(adj, target, max_nodes=5_000_000)
        except ResourceGuard:
            result.log.append(f"det {det} basis {basis}: node limit, skipped")
            continue
        if solution is None:
            result.log.append(f"det {det} basis {basis}: not {target}-colorable")
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
        result.log.append(f"det {det} basis {basis}: success")
        return result
    return result


def materialize_window(coloring: LatticeColoring, radius: int) -> WindowColoring:
    """Restrict a periodic coloring to the radius window around (0, 0)."""
    cells = ball((0, 0), radius)
    return WindowColoring(coloring.l, {v: coloring.color_of(v) for v in cells})


def window_conflicts(cells: list[Vertex], l: int) -> list[int]:
    """Bitmask graph over ``cells`` joining pairs at distance <= l."""
    return bitmask_graph(pairwise_distances(cells) <= l)


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


def exact_window_span(l: int, radius: int, budget: int,
                      guard: int = 200) -> WindowSearchResult:
    """Exact decision: can the radius window be colored with ``budget``
    colors under separation l?  Infeasibility at budget B is a proof
    that the whole grid needs at least B+1 colors.

    Windows larger than ``guard`` cells are refused outright; a refusal
    is never silently turned into an answer.
    """
    if l < 1 or radius < 0 or budget < 0:
        raise InputError("l must be >= 1, radius >= 0, budget >= 0")
    cells = ball((0, 0), radius)
    if len(cells) > guard:
        raise ResourceGuard(
            f"window of {len(cells)} cells exceeds the guard of {guard}; "
            "raise the guard explicitly to proceed"
        )
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
    assignment = {cell: c + 1 for cell, c in zip(cells, solution)}
    return WindowSearchResult(l, radius, budget, True,
                              WindowColoring(l, assignment), "explicit coloring")


def export_dimacs(l: int, radius: int, guard: int = 200) -> str:
    """DIMACS edge-format text of the l-th power graph of the radius
    window: all window cells, one edge per pair at distance <= l."""
    cells = sorted(ball((0, 0), radius))
    if len(cells) > guard:
        raise ResourceGuard(
            f"window of {len(cells)} cells exceeds the guard of {guard}"
        )
    adj = window_conflicts(cells, l)
    n = len(cells)
    edges = []
    for a in range(n):
        m = adj[a] >> (a + 1)   # bit k: vertex a + 1 + k
        while m:
            edges.append((a + 1, a + 1 + (m & -m).bit_length()))
            m &= m - 1
    lines = [f"c hexspan power graph: separation l={l}, window radius {radius}",
             "c vertex ids map to cells as:"]
    lines += [f"c vertex {idx + 1} {i} {j}" for idx, (i, j) in enumerate(cells)]
    lines.append(f"p edge {n} {len(edges)}")
    lines += [f"e {a} {b}" for a, b in edges]
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


def _gaps(values: np.ndarray, reach: int) -> np.ndarray:
    """The differences 0..reach between two of the ascending distinct
    ``values``, ascending."""
    seen = np.zeros(max(reach, 0) + 1, dtype=bool)
    seen[0] = True
    for r in range(1, values.size):
        gaps = values[r:] - values[:-r]  # grows with r
        if gaps.min() > reach:
            break
        seen[gaps[gaps <= reach]] = True
    return np.flatnonzero(seen)


def verify_window(coloring: WindowColoring) -> VerifyResult:
    """Check every pair of window cells at distance <= l for a color clash,
    on the closed form, stopping at the first 1000 clashes.

    Every pair u < v whose offset v - u lies in the box |di| <= l//2 + 1,
    |dj| <= l (which holds every cell within distance l) is a candidate;
    ``checked`` counts the candidates, and violations come in (u, v) order.
    Cells are keyed in a compressed layout.  The positive box offsets
    whose di and dj occur between window cells are taken one at a time,
    each in one numpy pass over all cells; one ``searchsorted`` per di
    finds the partners, which the passes then step along.  When the cap is
    hit, ``checked`` counts the candidates up to the 1000th clash.
    ``ResourceGuard`` if l is above the BFS oracle's limit, the bound that
    lattice files have too."""
    l = coloring.l
    if l > DISTANCE_BFS_LIMIT:
        raise ResourceGuard(f"l {l} exceeds the BFS oracle limit of {DISTANCE_BFS_LIMIT}, "
                            "which bounds window verification too")
    cells = sorted(coloring.assignment)
    if not cells:
        return VerifyResult(True, [], 0)
    n = len(cells)
    reach_i, reach_j = l // 2 + 1, l
    # gaps capped just past the box keep the key order and every in-box
    # offset, and the key width leaves room for any dj, so no shift wraps
    ii, i_values = _squeeze([i for i, _ in cells], reach_i + 1)
    jj, j_values = _squeeze([j for _, j in cells], reach_j + 1)
    width = int(jj.max()) + l + 1
    keys = ii * width + jj
    palette: dict[int, int] = {}
    code = np.array([palette.setdefault(coloring.assignment[c], len(palette)) for c in cells])
    hand = (ii + jj) & 1
    rows, cols = _gaps(i_values, reach_i), _gaps(j_values, reach_j)
    cols = np.concatenate([-cols[:0:-1], cols])
    ext = np.append(keys, np.iinfo(np.int64).max)  # a sentinel past the last key
    rep = np.array([[0], [1]])
    counts = np.zeros(n, dtype=np.int64)
    first = np.empty(0, dtype=np.int64)  # u * n + v of the earliest clashes, sorted
    step_rows = []
    for di in rows.tolist():
        dj = cols if di else cols[cols > 0]  # the lexicographically positive half
        if not dj.size:
            continue
        near = (distance_closed_array(rep, 0, rep + di, dj) <= l).T
        steps = di * width + dj
        step_rows.append(steps)
        # v[u] is the first key at or past u's target.  A key between two
        # consecutive targets would be a partner at a dj missing from cols,
        # so stepping past each partner found keeps v exact
        v = np.searchsorted(ext, keys + int(steps[0]))
        for step, close in zip(steps.tolist(), near):
            found = ext[v] == keys + step
            counts += found
            if close.any():
                u = np.flatnonzero(found)
                u = u[(code[v[u]] == code[u]) & close[hand[u]]]
                pairs = u * n + v[u]
                if first.size == 1000:
                    pairs = pairs[pairs < first[-1]]
                if pairs.size:
                    first = np.sort(np.concatenate([first, pairs]))[:1000]
            v += found
    violations = []
    for pair in first.tolist():
        u, v = cells[pair // n], cells[pair % n]
        violations.append(Violation(u, v, distance_closed(u, v), coloring.assignment[u]))
    if len(violations) < 1000:
        return VerifyResult(not violations, violations, int(counts.sum()))
    u, v = divmod(int(first[-1]), n)
    steps = np.concatenate(step_rows)
    tail = np.isin(keys[u] + steps[steps <= keys[v] - keys[u]], keys)
    return VerifyResult(False, violations, int(counts[:u].sum()) + np.count_nonzero(tail))


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
