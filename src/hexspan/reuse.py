"""Mechanical verification of color-reuse bounds on ring targets.

"The color of v can be reused at most N times in T" is formalized as a
spread bound: the largest subset of the reuse set R_v^T whose members
are pairwise at distance >= 2p+1 has size <= N.  Spreads are computed
exactly (the targets are small), and every verifier below reports the
full histogram of maxima plus explicit counterexamples when a bound is
breached, so a run doubles as a machine-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InputError
from .grid import Vertex, distance_bfs, distance_closed_array, distance_within, pairwise_distances
from .rings import (
    ball,
    build_clique,
    build_ring,
    reuse_set,
    shell_union,
    _shell_members,
)
from .solver import bitmask_graph
from .spans import span_even

ORIGIN: Vertex = (0, 0)


@dataclass(frozen=True)
class SpreadBound:
    """Exact maximum number of pairwise-compatible reuse positions for
    one color, with a witness subset realizing it."""

    source: Vertex
    p: int
    target_label: str
    max_spread: int
    witness: tuple[Vertex, ...]


def _max_clique_bits(masks: list[int]) -> tuple[int, int]:
    """Maximum clique of a bitmask graph: (size, member bitset).

    Branches on candidates in increasing index order and keeps the first
    clique of each new best size.  Two bounds prune a node: the number of
    candidates, and the number of classes of a greedy colouring of the
    candidates (a clique takes at most one cell per class).  Both cut
    only subtrees that cannot beat the incumbent strictly, so the clique
    returned is the one the unpruned search would keep.
    """
    best_size = 0
    best_set = 0
    # the cells each cell may share a colour class with: its non-neighbours
    others = [~(m | 1 << v) for v, m in enumerate(masks)]

    def expand(cur: int, cur_size: int, cand: int) -> None:
        nonlocal best_size, best_set
        if cur_size > best_size:
            best_size, best_set = cur_size, cur
        # greedy colour classes of cand, stopping once they exceed the
        # slack best_size - cur_size and so can no longer prune
        slack = best_size - cur_size
        uncoloured = cand
        classes = 0
        while uncoloured and classes <= slack:
            classes += 1
            free = uncoloured
            while free:
                bit = free & -free
                uncoloured ^= bit
                free &= others[bit.bit_length() - 1]
        if not uncoloured and classes <= slack:
            return
        while cand:
            if cur_size + cand.bit_count() <= best_size:
                return
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            expand(cur | bit, cur_size + 1, cand & masks[v])

    expand(0, 0, (1 << len(masks)) - 1)
    # expand refers to itself; unbinding it breaks that cycle, so the
    # masks are freed now rather than at the next cyclic collection
    del expand
    return best_size, best_set


def compatibility_masks(cells: list[Vertex], separation: int) -> list[int]:
    """Bitmask graph over ``cells`` joining pairs at distance >= separation."""
    if not cells:
        return []
    return bitmask_graph(pairwise_distances(cells) >= separation)


def max_spread(source: Vertex, p: int, target, label: str = "") -> SpreadBound:
    """Exact spread of ``source`` into ``target`` for 2p distance coloring."""
    members = sorted(reuse_set(source, p, target).members)
    if not members:
        return SpreadBound(source, p, label, 0, ())
    sep = 2 * p + 1
    size, chosen = _max_clique_bits(compatibility_masks(members, sep))
    witness = tuple(members[i] for i in range(len(members)) if chosen >> i & 1)
    # recheck the witness with the independent BFS oracle (a raise, not
    # an assert, so that python -O keeps it)
    for a, b in combinations((source, *witness), 2):
        if distance_within(a, b, sep - 1) is not None:
            raise AssertionError(f"spread witness {a}, {b} closer than {sep}")
    return SpreadBound(source, p, label, size, witness)


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


def verify_path_bound(p: int) -> ObservationReport:
    """Any cell of the radius-p ball and any outside cell whose center
    distances sum below 2p+1 are themselves closer than 2p+1.

    Exhaustive for all outside cells within radius 2p+2 (farther cells
    cannot satisfy the premise).
    """
    if p < 2:
        raise InputError(f"p must be >= 2, got {p}")
    report = ObservationReport("path-bound", p, {"outer_radius": 2 * p + 2})
    inner = ball(ORIGIN, p)
    outer = [v for k in range(p + 1, 2 * p + 3) for v in build_ring(ORIGIN, k).members]
    inner_arr = np.asarray(inner)
    outer_arr = np.asarray(outer)
    d1 = distance_closed_array(inner_arr[:, 0], inner_arr[:, 1], 0, 0)
    d2 = distance_closed_array(outer_arr[:, 0], outer_arr[:, 1], 0, 0)
    cross = distance_closed_array(
        inner_arr[:, 0][:, None], inner_arr[:, 1][:, None],
        outer_arr[:, 0][None, :], outer_arr[:, 1][None, :],
    )
    premise = d1[:, None] + d2[None, :] < 2 * p + 1
    breach = premise & (cross >= 2 * p + 1)
    for a, b in zip(*np.nonzero(breach)):
        report.fail(v1=inner[a], v2=outer[b], d=int(cross[a, b]))
    report.params["pairs_checked"] = int(premise.sum())
    return report


def _check_spreads(report: ObservationReport, sources, p: int, target, label: str,
                   bound: int, **fields) -> None:
    """Tally the spread of each source into ``target`` and record every
    spread above ``bound`` as a counterexample (``fields`` first)."""
    for source in sources:
        spread = max_spread(source, p, target, label)
        report.tally(spread.max_spread)
        if spread.max_spread > bound:
            report.fail(**fields, source=source, spread=spread.max_spread,
                        witness=spread.witness)


def verify_corner_reuse(p: int, qs=None) -> ObservationReport:
    """Corners of the radius p-q ring have spread at most 2 into the
    radius p+q+1 ring, for q = 0..p-2."""
    if qs is None:
        qs = range(0, p - 1)
    qs = list(qs)
    for q in qs:
        if not 0 <= q <= p - 2:
            raise InputError(f"q must be in 0..p-2 = 0..{p - 2}, got {q}")
    report = ObservationReport("corner-reuse", p, {"q": qs, "bound": 2})
    for q in qs:
        _check_spreads(report, build_ring(ORIGIN, p - q).corners, p,
                       build_ring(ORIGIN, p + q + 1).members, f"ring {p + q + 1}", 2, q=q)
    return report


def verify_noncorner_reuse(p: int, qs=None) -> ObservationReport:
    """Non-corner cells of the radius p-q ring have spread at most 1
    into the radius p+q+1 ring, for q = 0..p-3."""
    if qs is None:
        qs = range(0, p - 2)
    qs = list(qs)
    for q in qs:
        if not 0 <= q <= p - 3:
            raise InputError(f"q must be in 0..p-3 = 0..{p - 3}, got {q}")
    report = ObservationReport("noncorner-reuse", p, {"q": qs, "bound": 1})
    for q in qs:
        _check_spreads(report, build_ring(ORIGIN, p - q).non_corners, p,
                       build_ring(ORIGIN, p + q + 1).members, f"ring {p + q + 1}", 1, q=q)
    return report


def shell_reuse_ranges(p: int) -> list[tuple[int, int]]:
    """All (q, r) combinations covered by the shell reuse bounds."""
    out = []
    for q in range(0, max(p - 3, 0)):
        k = p - q
        for r in range(1, k // 2):
            out.append((q, r))
    return out


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
    report = ObservationReport(
        "shell-reuse", p,
        {"q": q, "r": r, "double_bound": 2, "single_bound": 1 if check_single else None},
    )
    shell = _shell_members(ORIGIN, k, r)
    ring = build_ring(ORIGIN, k)
    target = [v for h in range(1, 2 * r + 2) for v in build_ring(ORIGIN, p + q + h).members]
    label = f"rings {p + q + 1}..{p + q + 2 * r + 1}"
    _check_spreads(report, shell, p, target, label, 2, kind="shell")
    if check_single:
        rest = [v for v in ring.non_corners if v not in shell]
        _check_spreads(report, rest, p, target, label, 1, kind="non-shell")
    else:
        report.notes.append("single-reuse bound skipped: q beyond its p-5 range")
    return report


def verify_shell_reuse_all(p: int) -> list[ObservationReport]:
    return [verify_shell_reuse(p, q, r) for q, r in shell_reuse_ranges(p)]


def double_reuse_pairs(corner: Vertex, p: int, target) -> list[tuple[Vertex, Vertex]]:
    """All two-element subsets of the reuse set of ``corner`` whose
    members are mutually at distance >= 2p+1 (the ways to use the
    corner's color twice in ``target``)."""
    members = sorted(reuse_set(corner, p, target).members)
    masks = compatibility_masks(members, 2 * p + 1)
    return [(members[a], members[b])
            for a, b in combinations(range(len(members)), 2) if masks[a] >> b & 1]


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
        joint = any(
            not set(pa) & set(pb)
            for pa in pair_options[a]
            for pb in pair_options[b]
        )
        compat[(a, b)] = joint
        same_triple = a % 2 == b % 2
        if same_triple and joint:
            report.fail(corner_a=corners[a], corner_b=corners[b],
                        note="simultaneous double reuse should be impossible")
    report.params["double_pair_counts"] = [len(opts) for opts in pair_options]
    report.notes.append(
        "cross-triple compatibility: "
        + ", ".join(f"c{a + 1}/c{b + 1}={'yes' if compat[(a, b)] else 'no'}"
                    for a, b in sorted(compat) if a % 2 != b % 2)
    )
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


def run_checks(p: int) -> list[ObservationReport]:
    """The full battery for one p, in a stable order."""
    reports = [
        verify_path_bound(p),
        verify_corner_reuse(p),
        verify_noncorner_reuse(p),
    ]
    reports.extend(verify_shell_reuse_all(p))
    reports.append(verify_corner_pair_exclusion(p))
    reports.append(color_budget_certificate(p))
    return reports
