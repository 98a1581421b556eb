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

Finite windows use plain explicit assignments and a brute-force
verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError
from .grid import Vertex, distance_closed, pairwise_distances, parity, translate
from .rings import ball
from .solver import ResourceGuard, bitmask_graph, greedy_clique, solve_coloring
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


def verify_lattice(coloring: LatticeColoring) -> VerifyResult:
    """Full periodic validity check.

    Same-cell repeats are checked through every nonzero lattice vector
    with coordinates up to 2l+2 (a violating translation moves columns
    by at most l/2+1 and rows by at most l, so the box is sufficient),
    from a representative of each handedness class.  Distinct same-color
    cells are checked through the wrap-around distance.  The check
    stops at the first 100 violations.
    """
    l = coloring.l
    geo = coloring.geometry
    violations: list[Violation] = []
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
    by_color: dict[int, list[Vertex]] = {}
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


def _separation_ok(basis: tuple[Vertex, Vertex], l: int) -> bool:
    """True iff no nonzero lattice vector moves cells by l or less.

    Lattice vectors are even translations, which are automorphisms, so
    d(v, v+t) is the same for every v and equals d((0, 0), t)."""
    geo = lattice_geometry(basis)
    for t in geo.points_in_box(l // 2 + 1, l):
        if t != (0, 0) and distance_closed((0, 0), t) <= l:
            return False
    return True


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


def quotient_conflicts(geo: LatticeGeometry, l: int) -> list[int]:
    """Bitmask conflict graph over the fundamental domain.

    Domain cells u and v conflict iff some cell within distance l of u
    lies in the orbit of v.  Even translations are automorphisms, so the
    ball around u is u plus the ball offsets of its handedness class;
    ``canonical`` maps each ball cell to the domain cell of its orbit.
    The rule is applied to all cells of one handedness at once: domain
    cell k = x*d + y is (x, y) = divmod(k, d), and ``parity`` and
    ``canonical`` work elementwise on arrays of cells and ball cells.
    The rule is exact, and symmetric because the lattice acts by
    automorphisms."""
    n = geo.det
    xs, ys = np.divmod(np.arange(n), geo.d)
    related = np.zeros((n, n), dtype=bool)
    for hand, (di, dj) in enumerate(_ball_offsets(l)):
        rows = np.flatnonzero(parity((xs, ys)) == hand)
        cx, cy = geo.canonical((xs[rows, None] + di, ys[rows, None] + dj))
        related[rows[:, None], cx * geo.d + cy] = True
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


def verify_window(coloring: WindowColoring) -> VerifyResult:
    """Check every pair of window cells at distance <= l for a color clash,
    stopping at the first 1000 clashes."""
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
