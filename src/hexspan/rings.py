"""Rings, distance cliques, corner shells, and reuse sets.

The 3k cells at distance exactly k from a centre form a ring that
splits into six arcs (three of length ceil(k/2), three of length
floor(k/2)).  Each arc starts at one of six distinguished corner cells.
The explicit coordinate formulas below are for a right-handed centre;
a left-handed centre is handled through the mirror automorphism
w -> (a - w.i, b + w.j), which simply negates the column offsets.

Corner shells (cells of a ring at an even distance 2h from some corner)
and reuse sets (cells of a target region far enough from a source for
its color to recur) are computed by brute force from the distance
oracle rather than from printed coordinates, so the definitions stay
normative and the formulas act only as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .grid import Vertex, distance_closed, is_right


def _ring_offsets(k: int) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """Offsets of the radius-k ring around a right-handed centre, as the
    ordered member list plus the six-arc partition (arcs in ring order)."""
    up = (k + 1) // 2   # ceil(k/2)
    dn = k // 2         # floor(k/2)
    arcs = [
        [(m - 1, k - m + 1) for m in range(1, up + 1)],
        [(up, dn - 2 * m + 2) for m in range(1, dn + 1)],
        [(up - m + 1, -dn - m + 1) for m in range(1, up + 1)],
        [(-m + 1, -k + m - 1) for m in range(1, dn + 1)],
        [(-dn, -up + 2 * m - 2) for m in range(1, up + 1)],
        [(-dn + m - 1, up + m - 1) for m in range(1, dn + 1)],
    ]
    members = [off for arc in arcs for off in arc]
    return members, arcs


def corner_offsets(k: int) -> list[tuple[int, int]]:
    """The six corner offsets for k >= 2, one per arc, in ring order."""
    up = (k + 1) // 2
    dn = k // 2
    return [(0, k), (up, dn), (up, -dn), (0, -k), (-dn, -up), (-dn, up)]


@dataclass(frozen=True)
class Ring:
    """All cells at distance exactly k from ``center``, in ring order."""

    center: Vertex
    k: int
    members: tuple[Vertex, ...]
    arcs: tuple[tuple[Vertex, ...], ...]
    corners: tuple[Vertex, ...]  # empty for k = 1

    @property
    def non_corners(self) -> tuple[Vertex, ...]:
        cs = set(self.corners)
        return tuple(v for v in self.members if v not in cs)

    def member(self, n: int) -> Vertex:
        """1-based member lookup; corners sit at positions 1, ceil(k/2)+1,
        k+1, k+ceil(k/2)+1, 2k+1 and 2k+ceil(k/2)+1."""
        return self.members[n - 1]


def _apply(center: Vertex, offsets, mirror: bool):
    a, b = center
    if mirror:
        return [(a - di, b + dj) for di, dj in offsets]
    return [(a + di, b + dj) for di, dj in offsets]


def build_ring(center: Vertex, k: int) -> Ring:
    """The radius-k ring around ``center`` (either handedness)."""
    if k < 1:
        raise InputError(f"ring radius must be >= 1, got {k}")
    mirror = not is_right(center)
    offsets, arc_offsets = _ring_offsets(k)
    members = tuple(_apply(center, offsets, mirror))
    arcs = tuple(tuple(_apply(center, arc, mirror)) for arc in arc_offsets)
    corners = tuple(_apply(center, corner_offsets(k), mirror)) if k >= 2 else ()
    return Ring(center, k, members, arcs, corners)


@dataclass(frozen=True)
class DistanceClique:
    """The radius-p ball; all pairs sit within distance 2p, so a 2p
    distance coloring must give its 1 + 3p(p+1)/2 cells distinct colors."""

    center: Vertex
    p: int
    members: tuple[Vertex, ...]


def build_clique(center: Vertex, p: int) -> DistanceClique:
    if p < 1:
        raise InputError(f"clique parameter must be >= 1, got {p}")
    return DistanceClique(center, p, tuple(ball(center, p)))


def ball(center: Vertex, radius: int) -> list[Vertex]:
    """Cells within graph distance ``radius`` of ``center``."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    out = [center]
    for k in range(1, radius + 1):
        out.extend(build_ring(center, k).members)
    return out


def _shell_members(center: Vertex, k: int, h: int) -> frozenset[Vertex]:
    """Non-corner ring cells at distance exactly 2h from some corner,
    straight from the definition (no range policing)."""
    ring = build_ring(center, k)
    corners = ring.corners
    out = []
    for v in ring.non_corners:
        if any(distance_closed(v, c) == 2 * h for c in corners):
            out.append(v)
    return frozenset(out)


@dataclass(frozen=True)
class ShellSet:
    """Non-corner cells of the radius-k ring at distance 2h from a corner."""

    center: Vertex
    k: int
    h: int
    members: frozenset[Vertex]


def build_shell(center: Vertex, k: int, h: int) -> ShellSet:
    """Corner shell for k >= 5 and 1 <= h <= floor(k/2) - 1.

    h = floor(k/2) is rejected: at that distance the shell would swallow
    corner cells and stop being a set of non-corner cells.
    """
    if k < 5:
        raise InputError(f"corner shells are defined for rings k >= 5, got k={k}")
    if not 1 <= h <= k // 2 - 1:
        raise InputError(
            f"shell depth h must satisfy 1 <= h <= floor(k/2)-1 = {k // 2 - 1}, got h={h}"
        )
    return ShellSet(center, k, h, _shell_members(center, k, h))


def expected_shell_size(k: int, h: int) -> int:
    """Actual shell cardinality.

    Each of the six corners contributes the two ring cells h arc steps
    to either side (graph distance 2h).  When 2h equals an arc length
    the midpoint of that arc serves both of its end corners, so the
    three ceil(k/2) arcs or the three floor(k/2) arcs each give up one
    cell.  The count is therefore 12 minus 3 per coincidence.
    """
    size = 12
    if 2 * h == (k + 1) // 2:
        size -= 3
    if 2 * h == k // 2:
        size -= 3
    return size


def shell_union(center: Vertex, k: int, h: int) -> frozenset[Vertex]:
    """Corners of the radius-k ring together with its shells of depth 1..h."""
    members = set(build_ring(center, k).corners)
    for r in range(1, h + 1):
        members |= _shell_members(center, k, r)
    return frozenset(members)


@dataclass(frozen=True)
class ReuseSet:
    """Cells of ``target`` where the color of ``source`` may legally
    recur under a 2p distance coloring (distance >= 2p+1)."""

    source: Vertex
    p: int
    target: frozenset[Vertex]
    members: frozenset[Vertex]


def reuse_set(source: Vertex, p: int, target) -> ReuseSet:
    target = frozenset(target)
    members = frozenset(u for u in target if distance_closed(u, source) >= 2 * p + 1)
    return ReuseSet(source, p, target, members)
