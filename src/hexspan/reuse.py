"""Mechanical verification of color-reuse bounds on ring targets.

"The color of v can be reused at most N times in T" is formalized as a
spread bound: the largest subset of the reuse set R_v^T whose members
are pairwise at distance >= 2p+1 has size <= N.  Spreads are exact
clique searches, which the checks of ``run_checks(p)`` run inside one
compatibility graph per p, over the rings p+1..2p-1 that hold all of
their targets; the reports carry histograms of maxima and explicit
counterexamples, so a run doubles as a machine-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .coloring import window_conflicts
from .errors import InputError, ResourceGuard
from .grid import (Vertex, _to_bits, distance_bfs, distance_closed_array, distance_within,
                   pairwise_distances)
from .rings import (
    ball,
    build_clique,
    build_ring,
    reuse_set,
    shell_union,
    _shell_members,
)
from .solver import _max_clique_bits
from .spans import span_even

ORIGIN: Vertex = (0, 0)


@dataclass(frozen=True)
class SpreadBound:
    """Exact maximum number of pairwise-compatible reuse positions for
    one color, with a witness subset realizing it."""

    source: Vertex
    p: int
    max_spread: int
    witness: tuple[Vertex, ...]


def compatibility_masks(cells: list[Vertex], separation: int) -> list[int]:
    """Bitmask graph over ``cells`` joining pairs at distance >= separation:
    the complement of ``window_conflicts`` at separation - 1."""
    full = (1 << len(cells)) - 1
    return [full ^ row ^ (1 << v)
            for v, row in enumerate(window_conflicts(cells, separation - 1))]


def spread_graph(cells, p: int) -> tuple[dict[Vertex, int], list[int], list[int]]:
    """``max_spreads``'s graph over the sorted ``cells``: the position of
    each cell, the compatibility masks at 2p+1, the non-neighbour table."""
    cells = sorted(frozenset(cells))
    masks = compatibility_masks(cells, 2 * p + 1)
    return ({v: i for i, v in enumerate(cells)}, masks,
            [~(m | 1 << v) for v, m in enumerate(masks)])


@lru_cache(maxsize=1)
def _annulus_graph(p: int) -> tuple[dict[Vertex, int], list[int], list[int]]:
    """The ``spread_graph`` over rings p+1..2p-1 (4.5p(p-1) cells), which
    hold every spread target of ``run_checks(p)``."""
    return spread_graph(_rings(p + 1, 2 * p - 1), p)


def _spreads(sources, p: int, target, graph) -> list[SpreadBound]:
    """``max_spreads`` inside ``graph``, a ``spread_graph`` holding every
    target cell, searched once per distinct reuse set as a candidate
    bitset: both cell lists are sorted, so each search returns what it
    would on the reuse set's own graph.  Witnesses are rechecked by BFS."""
    sources = list(sources)
    cells = sorted(frozenset(target))
    sep = 2 * p + 1
    index, masks, others = graph
    members = list(index)
    reusable = np.zeros((len(sources), len(members)), dtype=bool)
    reusable[:, [index[v] for v in cells]] = pairwise_distances(sources, cells) >= sep
    solved: dict[bytes, tuple[int, tuple[Vertex, ...]]] = {}
    spreads = []
    for source, row in zip(sources, reusable):
        key = row.tobytes()
        if key not in solved:
            size, chosen = _max_clique_bits(masks, others, _to_bits(row))
            witness = []
            while chosen:
                witness.append(members[(chosen & -chosen).bit_length() - 1])
                chosen &= chosen - 1
            solved[key] = size, tuple(witness)
        size, witness = solved[key]
        # recheck the witness with the independent BFS oracle (a raise,
        # not an assert, so that python -O keeps it)
        for a, b in combinations((source, *witness), 2):
            if distance_within(a, b, sep - 1) is not None:
                raise AssertionError(f"spread witness {a}, {b} closer than {sep}")
        spreads.append(SpreadBound(source, p, size, witness))
    return spreads


def max_spreads(sources, p: int, target) -> list[SpreadBound]:
    """Exact spread of each of ``sources`` into ``target`` for 2p distance
    coloring, in the order of ``sources``."""
    return _spreads(sources, p, target, spread_graph(target, p))


def max_spread(source: Vertex, p: int, target) -> SpreadBound:
    """Exact spread of ``source`` into ``target`` for 2p distance coloring."""
    return max_spreads([source], p, target)[0]


def spread_by_powerset(source: Vertex, p: int, target) -> int:
    """Independent spread computation by scanning all subsets.

    Only for small reuse sets; used to cross-check ``max_spread``.
    """
    members = sorted(reuse_set(source, p, target).members)
    if len(members) > 20:
        raise InputError("power-set scan limited to 20 reuse cells")
    sep = 2 * p + 1
    best = 0
    for size in range(len(members), 0, -1):
        if size <= best:
            break
        for sub in combinations(members, size):
            if all(distance_bfs(a, b) >= sep for a, b in combinations(sub, 2)):
                best = size
                break
    return best


@dataclass
class ObservationReport:
    """Outcome of one mechanized check: verdict, the histogram of the
    maxima encountered, and explicit counterexamples on failure."""

    check: str
    p: int
    params: dict
    verdict: str = "pass"
    maxima: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def fail(self, **counterexample) -> None:
        self.verdict = "fail"
        self.counterexamples.append(counterexample)

    def tally(self, value: int) -> None:
        self.maxima[value] = self.maxima.get(value, 0) + 1

    def to_dict(self) -> dict:
        return {
            "id": self.check,
            "p": self.p,
            "params": self.params,
            "verdict": self.verdict,
            "maxima": {str(k): v for k, v in sorted(self.maxima.items())},
            "counterexamples": [
                {k: (list(v) if isinstance(v, tuple) else v) for k, v in ce.items()}
                for ce in self.counterexamples
            ],
            "notes": list(self.notes),
        }


def _rings(first: int, last: int) -> list[Vertex]:
    """The cells of rings first..last around the origin, ring by ring."""
    return [v for k in range(first, last + 1) for v in build_ring(ORIGIN, k).members]


def verify_path_bound(p: int) -> ObservationReport:
    """Any cell of the radius-p ball and any outside cell whose center
    distances sum below 2p+1 are themselves closer than 2p+1.

    Exhaustive for all outside cells within radius 2p+2 (farther cells
    cannot satisfy the premise).  Only the pairs that meet the premise
    are measured.
    """
    if p < 2:
        raise InputError(f"p must be >= 2, got {p}")
    report = ObservationReport("path-bound", p, {"outer_radius": 2 * p + 2})
    inner = ball(ORIGIN, p)
    outer = _rings(p + 1, 2 * p + 2)
    (d1,), (d2,) = pairwise_distances([ORIGIN], inner), pairwise_distances([ORIGIN], outer)
    # the premise pairs, in row-major order
    a, b = np.nonzero(d1[:, None] < 2 * p + 1 - d2)
    u, v = np.asarray(inner)[a], np.asarray(outer)[b]
    cross = distance_closed_array(u[:, 0], u[:, 1], v[:, 0], v[:, 1])
    for k in np.flatnonzero(cross >= 2 * p + 1):
        report.fail(v1=inner[a[k]], v2=outer[b[k]], d=int(cross[k]))
    report.params["pairs_checked"] = len(a)
    return report


def _check_spreads(report: ObservationReport, sources, p: int, target, bound: int,
                   **fields) -> None:
    """Tally the spread of each source into ``target`` (in the annulus)
    and record every spread above ``bound`` as a counterexample."""
    for spread in _spreads(sources, p, target, _annulus_graph(p)):
        report.tally(spread.max_spread)
        if spread.max_spread > bound:
            report.fail(**fields, source=spread.source, spread=spread.max_spread,
                        witness=spread.witness)


def _verify_ring_reuse(check: str, p: int, last: int, bound: int, sources) -> ObservationReport:
    """Spread of ``sources(ring p-q)`` into the radius p+q+1 ring is at
    most ``bound``, for q = 0..last."""
    report = ObservationReport(check, p, {"q": list(range(last + 1)), "bound": bound})
    for q in range(last + 1):
        _check_spreads(report, sources(build_ring(ORIGIN, p - q)), p,
                       build_ring(ORIGIN, p + q + 1).members, bound, q=q)
    return report


def verify_corner_reuse(p: int) -> ObservationReport:
    """Corners of the radius p-q ring have spread at most 2 into the
    radius p+q+1 ring, for q = 0..p-2."""
    return _verify_ring_reuse("corner-reuse", p, p - 2, 2, lambda ring: ring.corners)


def verify_noncorner_reuse(p: int) -> ObservationReport:
    """Non-corner cells of the radius p-q ring have spread at most 1
    into the radius p+q+1 ring, for q = 0..p-3."""
    return _verify_ring_reuse("noncorner-reuse", p, p - 3, 1, lambda ring: ring.non_corners)


def shell_reuse_ranges(p: int) -> list[tuple[int, int]]:
    """All (q, r) combinations covered by the shell reuse bounds."""
    return [(q, r) for q in range(0, max(p - 3, 0)) for r in range(1, (p - q) // 2)]


def verify_shell_reuse(p: int, q: int, r: int) -> ObservationReport:
    """Check the claimed deep-union bounds: shell cells reuse at most
    twice, and the remaining non-corner cells at most once, into the
    union of rings p+q+1 .. p+q+2r+1.

    The double claim is checked for q = 0..p-4, the single claim for
    q = 0..p-5; outside the single range only the double claim is
    checked and a note records the skip.  Both claims are false in
    general: most combinations report BFS-verified counterexamples.

    q = p-4 gives the radius-4 ring, for which ``build_shell`` refuses
    (it requires k >= 5); the range here still covers it.  There every
    depth-1 shell cell sits at distance 2 from two corners and breaches
    the double claim.  The documented ranges do not settle which of the
    two is meant, so both are kept as they are.
    """
    if p < 4:
        raise InputError(f"p must be >= 4, got {p}")
    if not 0 <= q <= p - 4:
        raise InputError(f"q must be in 0..p-4 = 0..{p - 4}, got {q}")
    k = p - q
    if not 1 <= r <= k // 2 - 1:
        raise InputError(f"r must be in 1..floor((p-q)/2)-1 = 1..{k // 2 - 1}, got {r}")
    check_single = q <= p - 5
    report = ObservationReport("shell-reuse", p, {"q": q, "r": r, "double_bound": 2,
                                                  "single_bound": 1 if check_single else None})
    shell = _shell_members(ORIGIN, k, r)
    target = _rings(p + q + 1, p + q + 2 * r + 1)
    _check_spreads(report, shell, p, target, 2, kind="shell")
    if check_single:
        rest = [v for v in build_ring(ORIGIN, k).non_corners if v not in shell]
        _check_spreads(report, rest, p, target, 1, kind="non-shell")
    else:
        report.notes.append("single-reuse bound skipped: q beyond its p-5 range")
    return report


def verify_shell_reuse_all(p: int) -> list[ObservationReport]:
    return [verify_shell_reuse(p, q, r) for q, r in shell_reuse_ranges(p)]


def double_reuse_pairs(corner: Vertex, p: int, target) -> list[tuple[Vertex, Vertex]]:
    """All two-element subsets of the reuse set of ``corner`` whose
    members are mutually at distance >= 2p+1 (the ways to use the
    corner's color twice in ``target``), in the order of a scan over the
    index pairs a < b of the sorted reuse set."""
    members = sorted(reuse_set(corner, p, target).members)
    a, b = np.nonzero(np.triu(pairwise_distances(members) >= 2 * p + 1, 1))
    return [(members[i], members[j]) for i, j in zip(a.tolist(), b.tolist())]


def verify_corner_pair_exclusion(p: int) -> ObservationReport:
    """No two corners of the radius-p ring taken from the same
    alternating triple (arcs 1/3/5 or arcs 2/4/6) can both be doubly
    reused into the radius p+1 ring: any double placements collide in a
    shared cell.  Corners from opposite triples stay compatible."""
    if p < 2:
        raise InputError(f"p must be >= 2, got {p}")
    report = ObservationReport("corner-pair-exclusion", p, {"target_ring": p + 1})
    corners = build_ring(ORIGIN, p).corners
    target = build_ring(ORIGIN, p + 1).members
    pair_options = [double_reuse_pairs(c, p, target) for c in corners]
    compat = {}
    for a, b in combinations(range(6), 2):
        compat[(a, b)] = joint = any(not set(pa) & set(pb) for pa in pair_options[a]
                                     for pb in pair_options[b])
        if a % 2 == b % 2 and joint:  # the same triple
            report.fail(corner_a=corners[a], corner_b=corners[b],
                        note="simultaneous double reuse should be impossible")
    report.params["double_pair_counts"] = [len(opts) for opts in pair_options]
    report.notes.append("cross-triple compatibility: " + ", ".join(
        f"c{a + 1}/c{b + 1}={'yes' if compat[(a, b)] else 'no'}"
        for a, b in sorted(compat) if a % 2 != b % 2))
    return report


def color_budget_certificate(p: int) -> ObservationReport:
    """Arithmetic certificate for the new-color count.

    For each stage r the colors that can reach the radius p+2r+1 ring
    come from the radius p-2r ring (non-corners once, corners twice)
    and from the inner shells that still have one reuse left.  Corner
    doubles and shell reuses must all land inside the outer ring's
    corner-shell union U, which has exactly 12r+6 cells, so the capped
    budget is (3(p-2r)-6) + (12r+6) = 3p+6r against 3p+6r+3 ring cells:
    deficit 3.  The paired two-ring budget comes to 6p+12r-3 against
    6p+12r+3: deficit 6.  Both are recomputed here from the actual set
    sizes, with any shell-size shortfall absorbed by the U cap.
    """
    if p < 4:
        raise InputError(f"p must be >= 4, got {p}")
    report = ObservationReport("new-color-budget", p, {"stages": p // 2 - 1})
    report.params["first_ring_gap"] = 3 * (p + 1) - 3 * p
    cert = span_even(2 * p)
    clique = build_clique(ORIGIN, p)
    if len(clique.members) != cert.clique_size:
        report.fail(component="clique-size", actual=len(clique.members),
                    expected=cert.clique_size)
    report.params["final_count"] = {
        "clique": cert.clique_size, "extra": cert.extra,
        "total": cert.span, "formula": cert.formula_value,
    }
    stages = []
    for r in range(1, p // 2):
        line: dict = {"r": r}
        outer_k = p + 2 * r + 1
        ring_size = len(build_ring(ORIGIN, outer_k).members)
        line["ring"] = ring_size
        if ring_size != 3 * p + 6 * r + 3:
            report.fail(component="ring-size", r=r, actual=ring_size)
        inner = build_ring(ORIGIN, p - 2 * r)
        nc = len(inner.non_corners)
        if nc != max(3 * (p - 2 * r) - 6, 0):
            report.fail(component="inner-noncorners", r=r, actual=nc)
        shells = [(p - 2 * t, r - t) for t in range(r)]
        shell_sizes = {f"k={k},h={h}": len(_shell_members(ORIGIN, k, h)) for k, h in shells}
        supply = sum(shell_sizes.values())
        line["shell_supply"] = {"claimed": 12 * r, "actual": supply, "sizes": shell_sizes}
        for key, size in shell_sizes.items():
            if size != 12:
                report.notes.append(f"stage r={r}: shell {key} has {size} cells, not 12")
        cap = len(shell_union(ORIGIN, outer_k, r))
        line["reuse_cap"] = cap
        if cap != 12 * r + 6:
            report.fail(component="reuse-cap", r=r, actual=cap, expected=12 * r + 6)
        if 12 + supply < cap:
            report.fail(component="cap-undersupplied", r=r, supply=12 + supply, cap=cap)
        slots = nc + min(12 + supply, cap)
        line["slots"] = {"claimed": 3 * p + 6 * r, "actual": slots}
        line["deficit"] = {"claimed": 3, "actual": ring_size - slots}
        if ring_size - slots < 3:
            report.fail(component="deficit", r=r, actual=ring_size - slots)
        # paired budget over rings p+2r and p+2r+1
        both = ring_size + len(build_ring(ORIGIN, p + 2 * r).members)
        if both != 6 * p + 12 * r + 3:
            report.fail(component="paired-ring-size", r=r, actual=both)
        inner2 = build_ring(ORIGIN, p - 2 * r + 1)
        nc2 = len(inner2.non_corners)
        shells2 = [(p - 1 - 2 * t, r - 1 - t) for t in range(r - 1)]
        supply2 = sum(len(_shell_members(ORIGIN, k, h)) for k, h in shells2)
        slots2 = nc2 + 12 + supply2
        line["paired_slots"] = {"claimed": 3 * p + 6 * r - 3, "actual": slots2}
        paired_deficit = both - slots - slots2
        line["paired_deficit"] = {"claimed": 6, "actual": paired_deficit}
        if paired_deficit < 6:
            report.fail(component="paired-deficit", r=r, actual=paired_deficit)
        stages.append(line)
    report.params["stages_detail"] = stages
    return report


# the largest p the battery takes: on a 2-vCPU Xeon run_checks(24) takes
# about 13 s and 65 MB, and each step of 4 in p multiplies the time by 3 to 5
MAX_P = 24


def _refuse_large_p(p: int) -> None:
    """``ResourceGuard`` if p is above ``MAX_P``."""
    if p > MAX_P:
        raise ResourceGuard(f"p {p} exceeds the observation battery's limit of {MAX_P}")


def run_checks(p: int) -> list[ObservationReport]:
    """The full battery for one p, in a stable order.  The spread checks
    share the annulus graph of p (see ``_annulus_graph``).
    ``ResourceGuard``, before any ring is built, if p is above ``MAX_P``."""
    _refuse_large_p(p)
    return [verify_path_bound(p), verify_corner_reuse(p), verify_noncorner_reuse(p),
            *verify_shell_reuse_all(p), verify_corner_pair_exclusion(p),
            color_budget_certificate(p)]
