import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexspan.reuse import (
    color_budget_certificate,
    double_reuse_pairs,
    max_spread,
    run_checks,
    shell_reuse_ranges,
    spread_by_powerset,
    verify_corner_pair_exclusion,
    verify_corner_reuse,
    verify_noncorner_reuse,
    verify_path_bound,
    verify_shell_reuse,
)
from hexspan.rings import build_ring, _shell_members


def test_max_spread_corner_example():
    # corner (0,5) of the radius-5 ring into the radius-6 ring
    target = build_ring((0, 0), 6).members
    bound = max_spread((0, 5), 5, target)
    assert bound.max_spread == 2
    assert set(bound.witness) == {(3, -3), (-3, -3)}


def test_max_spread_noncorner_is_one():
    target = build_ring((0, 0), 6).members
    for source in build_ring((0, 0), 5).non_corners:
        assert max_spread(source, 5, target).max_spread <= 1


def test_max_spread_empty_target():
    assert max_spread((0, 0), 4, []).max_spread == 0


def test_max_spread_witness_recheck_survives_optimize_flag():
    # a complete compatibility graph makes the clique search return a
    # witness whose cells are too close; the BFS recheck must reject it
    # even under python -O, which strips assert statements
    code = (
        "import hexspan.reuse as reuse\n"
        "from hexspan.rings import build_ring\n"
        "reuse.compatibility_masks = lambda cells, sep: "
        "[((1 << len(cells)) - 1) & ~(1 << a) for a in range(len(cells))]\n"
        "try:\n"
        "    reuse.max_spread((0, 5), 5, build_ring((0, 0), 6).members)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('bad witness accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "closer than 11" in proc.stdout


def test_max_spread_agrees_with_powerset_scan():
    target = build_ring((0, 0), 6).members
    for source in build_ring((0, 0), 5).members[:8]:
        assert max_spread(source, 5, target).max_spread == \
            spread_by_powerset(source, 5, target)


@given(st.integers(4, 7), st.integers(0, 2))
@settings(max_examples=12, deadline=None)
def test_spread_shrinks_with_p(p, q):
    # enlarging p can only shrink the spread for a fixed geometry
    target = build_ring((0, 0), p + q + 1).members
    source = build_ring((0, 0), max(p - q, 1)).members[0]
    s1 = max_spread(source, p, target).max_spread
    s2 = max_spread(source, p + 1, target).max_spread
    assert s2 <= s1


def test_path_bound_passes():
    for p in (2, 4, 5):
        assert verify_path_bound(p).ok


def test_corner_reuse_passes_and_ranges():
    rep = verify_corner_reuse(5)
    assert rep.ok
    assert rep.maxima.get(2, 0) > 0
    with pytest.raises(ValueError):
        verify_corner_reuse(5, qs=[4])


def test_noncorner_reuse_passes_and_ranges():
    assert verify_noncorner_reuse(5).ok
    assert verify_noncorner_reuse(7, qs=[2]).ok
    with pytest.raises(ValueError):
        verify_noncorner_reuse(5, qs=[3])


def test_shell_reuse_range_errors():
    with pytest.raises(ValueError):
        verify_shell_reuse(5, 4, 1)   # q > p-4
    with pytest.raises(ValueError):
        verify_shell_reuse(5, 0, 2)   # r > floor((p-q)/2)-1
    with pytest.raises(ValueError):
        verify_shell_reuse(3, 0, 1)   # p too small


def test_shell_reuse_ranges_enumeration():
    assert shell_reuse_ranges(4) == [(0, 1)]
    assert (0, 1) in shell_reuse_ranges(6) and (0, 2) in shell_reuse_ranges(6)


def test_shell_reuse_double_bound_fails_on_arc_midpoints():
    """The two-reuse bound genuinely fails for shell cells that sit at
    distance 2h from two corners at once; the verifier must surface
    them rather than hide them."""
    from hexspan.grid import distance_closed

    rep = verify_shell_reuse(5, 0, 1)
    assert not rep.ok
    bad = {ce["source"] for ce in rep.counterexamples}
    assert bad == {(3, 0), (-1, -4), (-1, 4)}
    assert all(ce["spread"] == 3 for ce in rep.counterexamples)
    # and those three are exactly the cells at distance 2 from two corners
    corners = build_ring((0, 0), 5).corners
    mids = {v for v in _shell_members((0, 0), 5, 1)
            if sum(1 for c in corners if distance_closed(v, c) == 2) == 2}
    assert bad == mids


def test_shell_reuse_clean_case_passes_double_bound():
    # ring 10, depth 1: no arc-length coincidence, no deep union: r=1
    # keeps every shell cell within the two-reuse bound
    rep = verify_shell_reuse(10, 0, 1)
    shell_breaches = [ce for ce in rep.counterexamples if ce["kind"] == "shell"]
    assert not shell_breaches


def test_corner_pair_exclusion():
    for p in (4, 5, 7):
        rep = verify_corner_pair_exclusion(p)
        assert rep.ok, rep.counterexamples


def test_corner_double_reuse_pairs_pattern():
    # at q=0 each corner has exactly one way to be doubly reused: the
    # outer-ring corners two and four arcs further around
    p = 5
    corners_in = build_ring((0, 0), p).corners
    target = build_ring((0, 0), p + 1)
    for idx, corner in enumerate(corners_in):
        pairs = double_reuse_pairs(corner, p, target.members)
        assert len(pairs) == 1
        assert set(pairs[0]) == {target.corners[(idx + 2) % 6],
                                 target.corners[(idx + 4) % 6]}


def test_budget_certificate_p5_numbers():
    rep = color_budget_certificate(5)
    assert rep.ok
    stage = rep.params["stages_detail"][0]
    assert stage["ring"] == 24
    assert stage["slots"] == {"claimed": 21, "actual": 21}
    assert stage["deficit"] == {"claimed": 3, "actual": 3}
    assert stage["reuse_cap"] == 18
    assert stage["shell_supply"]["actual"] == 9  # the k=5 shell has 9 cells
    assert rep.params["final_count"]["total"] == 48


def test_budget_certificate_p4_final_count():
    rep = color_budget_certificate(4)
    assert rep.ok
    assert rep.params["final_count"] == {
        "clique": 31, "extra": 2, "total": 33, "formula": 33,
    }


@pytest.mark.parametrize("p", [4, 5, 6, 7, 8])
def test_budget_certificate_passes(p):
    assert color_budget_certificate(p).ok


def test_report_serialization():
    rep = verify_corner_reuse(4)
    payload = rep.to_dict()
    assert payload["id"] == "corner-reuse"
    assert payload["verdict"] == "pass"
    assert isinstance(payload["maxima"], dict)


def test_run_checks_order_and_ids():
    ids = [r.check for r in run_checks(4)]
    assert ids[0] == "path-bound"
    assert ids[-1] == "new-color-budget"
    assert "corner-pair-exclusion" in ids
