import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from hexspan import cli, rings
from hexspan.cli import export_dimacs, run
from hexspan.coloring import (
    LatticeColoring,
    WindowColoring,
    exact_window_span,
    materialize_window,
    search_lattice,
    search_periodic,
    single_coset_coloring,
    window_conflicts,
    write_coloring,
)
from hexspan.errors import InputError
from hexspan.render import render_svg
from hexspan.grid import distance_closed, pairwise_distances
from hexspan.rings import ball, build_ring
from hexspan.solver import ResourceGuard, bitmask_graph, solve_coloring


def test_span_json(capsys):
    assert run(["span", "10", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["schema"] == "hexspan/1"
    assert payload["span"] == 48 and payload["l"] == 10
    assert out == ('{"clique_size": 46, "command": "span", "extra": 2, "formula_value": 48, '
                   '"l": 10, "p": 5, "parity_case": "p=2q+1", "schema": "hexspan/1", '
                   '"span": 48}\n')


def test_span_rejects_odd_l(capsys):
    assert run(["span", "9"]) == 2
    assert "odd" in capsys.readouterr().err


def test_distance_command(capsys):
    assert run(["distance", "0", "0", "-1", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance"] == 3 == payload["bfs"]
    # d = 1000 with the widest BFS box the limit admits is still checked
    assert run(["distance", "0", "0", "500", "500", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance"] == 1000 == payload["bfs"]
    # one past the limit, and a box 100 times that size, are refused
    for far in ("0 1001", "5000 0"):
        assert run(["distance", "0", "0", *far.split()]) == 3
        assert "exceeds the BFS oracle limit of 1000" in capsys.readouterr().err


def test_ring_and_shell_commands(capsys):
    assert run(["ring", "7", "--json"]) == 0
    ring = json.loads(capsys.readouterr().out)
    assert ring["size"] == 21
    assert [0, 7] in ring["corners"]
    assert run(["shell", "7", "1", "--json"]) == 0
    shell = json.loads(capsys.readouterr().out)
    assert shell["size"] == 12
    assert run(["shell", "7", "3"]) == 2  # h = floor(k/2) rejected


@pytest.mark.parametrize("argv", [["ring", "1001"], ["ring", "1000000"],
                                  ["shell", "1001", "5"], ["shell", str(10 ** 12), "5"]])
def test_rings_past_the_bfs_limit_are_refused_before_they_are_built(argv, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("ring built")

    monkeypatch.setattr(rings, "_ring_offsets", fail)
    assert run(argv) == 3
    assert f"ring radius {argv[1]} exceeds the BFS oracle limit of 1000" in capsys.readouterr().err


def test_rings_at_the_bfs_limit_are_built(capsys):
    assert run(["ring", "1000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 3000
    assert run(["shell", "1000", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 12


def test_check_observations_single_ring_bounds(capsys):
    # p=4 includes a genuine shell-reuse breach, so overall verdict fails
    assert run(["check-observations", "--p-min", "4", "--p-max", "4", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    by_id = {}
    for rep in payload["reports"]:
        by_id.setdefault(rep["id"], []).append(rep)
    assert all(r["verdict"] == "pass" for r in by_id["corner-reuse"])
    assert all(r["verdict"] == "pass" for r in by_id["noncorner-reuse"])
    assert all(r["verdict"] == "pass" for r in by_id["corner-pair-exclusion"])
    assert all(r["verdict"] == "pass" for r in by_id["new-color-budget"])
    assert any(r["verdict"] == "fail" for r in by_id["shell-reuse"])


def test_internal_check_failure_exit_4(monkeypatch, capsys):
    # a complete compatibility graph makes every spread witness too
    # close; the BFS recheck raises and the CLI reports a bug, not a
    # failed verification
    import hexspan.reuse as reuse

    monkeypatch.setattr(reuse, "compatibility_masks", lambda cells, sep: [
        ((1 << len(cells)) - 1) & ~(1 << a) for a in range(len(cells))])
    assert run(["check-observations", "--p-min", "5", "--p-max", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: ")
    assert "closer than 11" in err


def test_exact_window_command(capsys):
    assert run(["exact-window", "2", "--radius", "1", "--budget", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run(["exact-window", "2", "--radius", "1", "--budget", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_exact_window_infeasible_out_writes_nothing(tmp_path, capsys):
    out = tmp_path / "window.col"
    assert run(["exact-window", "2", "--radius", "1", "--budget", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "no coloring written: infeasible\n"
    assert not out.exists()
    assert run(["exact-window", "2", "--radius", "1", "--budget", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_exact_window_invalid_solver_answer_exit_4(monkeypatch, capsys):
    monkeypatch.setattr("hexspan.coloring.solve_coloring",
                        lambda adj, budget: ([0] * len(adj), 1))
    assert run(["exact-window", "4", "--radius", "3", "--budget", "19"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: ")
    assert "invalid window coloring" in err


def test_exact_window_guard_exit_code(capsys):
    assert run(["exact-window", "4", "--radius", "12", "--budget", "50"]) == 3
    assert "refused" in capsys.readouterr().err


def _limited_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _capped(*args):
    """``python *args`` under a 2 GB address-space cap and a 60 s
    timeout, so that a regression to O(budget) or O(window) work fails
    fast instead of exhausting memory."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, preexec_fn=_limited_memory)


def test_exact_window_recheck_reads_no_range_of_the_budget():
    # the recheck once built set(range(budget)): 0.3 s at 3e6, MemoryError at 1e12
    proc = _capped("-c", "import time\n"
                         "from hexspan.coloring import exact_window_span\n"
                         "start = time.perf_counter()\n"
                         "assert exact_window_span(8, 1, 10**12).feasible\n"
                         "print(time.perf_counter() - start)\n")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1
    proc = _capped("-m", "hexspan", "exact-window", "8", "--radius", "1",
                   "--budget", str(10**12))
    assert proc.returncode == 0, proc.stderr
    assert "feasible (explicit coloring)" in proc.stdout


@pytest.mark.parametrize("command", [["exact-window", "2", "--budget", "3"],
                                     ["export-dimacs", "2"]])
def test_a_huge_window_is_refused_before_it_is_built(command, tmp_path):
    # 1.5e12 cells: building the ball first would never end
    out = tmp_path / "huge.out"
    proc = _capped("-m", "hexspan", *command, "--radius", "1000000", "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "window of 1500001500001 cells exceeds the limit of 200" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [["exact-window", "4", "--budget", "11"],
                                     ["export-dimacs", "4"]])
def test_the_window_guard_option_is_gone(command, tmp_path, capsys):
    # the window limit is the library's MAX_WINDOW_CELLS, not an option
    out = tmp_path / "w.out"
    assert run([*command, "--radius", "3", "--guard", "3", "--out", str(out)]) == 2
    assert "unrecognized arguments: --guard 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["exact-window", "2000", "--budget", "3"],
                                     ["exact-window", "2000", "--budget", "4"],
                                     ["export-dimacs", "2000"]])
def test_a_window_past_the_bfs_limit_is_refused_before_it_is_built(command, monkeypatch,
                                                                   tmp_path, capsys):
    # l = 2000 on the 4-cell window was once decided (budget 3) or solved
    # and then refused at the recheck (budget 4); now neither starts
    def fail(*args):
        raise AssertionError("window built")

    monkeypatch.setattr("hexspan.coloring.ball", fail)
    monkeypatch.setattr("hexspan.coloring.window_conflicts", fail)
    out = tmp_path / "far.out"
    assert run([*command, "--radius", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: l 2000 exceeds the BFS oracle limit of 1000\n"
    assert not out.exists()


def test_exact_window_node_limit_exits_3(monkeypatch, capsys):
    # the radius-8 window at l = 10, B = 47 (109 cells) runs far past a
    # small node limit: the stop is a refusal and exit 3 with no verdict,
    # never "infeasible"
    monkeypatch.setattr("hexspan.coloring.solve_coloring",
                        lambda adj, budget: solve_coloring(adj, budget, max_nodes=10_000))
    with pytest.raises(ResourceGuard, match="exceeded 10000 nodes"):
        exact_window_span(10, 8, 47)
    assert run(["exact-window", "10", "--radius", "8", "--budget", "47"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: coloring search exceeded 10000 nodes\n"


def test_export_dimacs_clique_counts(tmp_path, capsys):
    out = tmp_path / "d2r1.col"
    assert run(["export-dimacs", "2", "--radius", "1", "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 4 and payload["edges"] == 6
    lines = out.read_text().splitlines()
    assert "p edge 4 6" in lines
    assert sum(1 for ln in lines if ln.startswith("e ")) == 6
    assert any(ln.startswith("c vertex 1 ") for ln in lines)


def test_export_dimacs_l4_r2_complete():
    text = export_dimacs(4, 2)
    header = next(ln for ln in text.splitlines() if ln.startswith("p "))
    assert header == "p edge 10 45"


def test_export_dimacs_l4_r3_edge_count():
    # oracle: count pairs at distance <= 4 directly
    from hexspan.grid import pairwise_distances

    cells = sorted(ball((0, 0), 3))
    dmat = pairwise_distances(cells)
    m = sum(1 for a in range(19) for b in range(a + 1, 19) if dmat[a, b] <= 4)
    text = export_dimacs(4, 3)
    assert f"p edge 19 {m}" in text


def _dimacs_by_pair_probe(l, radius):
    # a second route to the export: every pair (a, b), a < b, probed in
    # the bitmask graph
    cells = sorted(ball((0, 0), radius))
    adj = window_conflicts(cells, l)
    n = len(cells)
    edges = [(a + 1, b + 1) for a in range(n) for b in range(a + 1, n)
             if adj[a] >> b & 1]
    lines = [f"c hexspan power graph: separation l={l}, window radius {radius}",
             "c vertex ids map to cells as:"]
    lines += [f"c vertex {idx + 1} {i} {j}" for idx, (i, j) in enumerate(cells)]
    lines.append(f"p edge {n} {len(edges)}")
    lines += [f"e {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("l", range(2, 9))
def test_export_dimacs_matches_the_pair_probe(l):
    for radius in range(8):
        assert export_dimacs(l, radius) == _dimacs_by_pair_probe(l, radius)


@pytest.mark.parametrize("l, radius, digest", [
    (8, 7, "1bcd87a810b6920bdbe81cc9de6a27ed79ee95a3c56bd3fb4f6b34810eacc519"),
    (4, 11, "86b77de3f9efea7cd5db7862a58f2438a316ad5e27928adf272a0a46d15b276d"),
])
def test_export_dimacs_text_pinned(l, radius, digest):
    # the text as the bitmask-graph export wrote it, byte for byte
    text = export_dimacs(l, radius)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_export_dimacs_guard():
    with pytest.raises(ResourceGuard):
        export_dimacs(4, 12)


def test_verify_coloring_roundtrip_and_mutation(tmp_path, capsys):
    good = exact_window_span(4, 3, 19).coloring
    good_path = tmp_path / "good.col"
    good_path.write_text(write_coloring(good))
    assert run(["verify-coloring", str(good_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True

    cells = sorted(good.assignment)
    u, v = cells[0], cells[1]
    bad = dict(good.assignment)
    bad[u] = good.assignment[v]
    bad_path = tmp_path / "bad.col"
    bad_path.write_text(write_coloring(WindowColoring(4, bad)))
    assert run(["verify-coloring", str(bad_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False and payload["violations"]


def test_verify_coloring_lattice_violations_pinned(tmp_path, capsys):
    # l = 8 on ((4, 4), (4, -4)): six lattice vectors at distance 8 break
    # separation, and (0, 1) takes the color of (0, 0); each pair of domain
    # cells is reported once, at its nearest ball cell, nearest pair first
    coloring = single_coset_coloring(8, ((4, 4), (4, -4)))
    coloring.assignment[(0, 1)] = coloring.assignment[(0, 0)]
    path = tmp_path / "bad.col"
    path.write_text(write_coloring(coloring))
    assert run(["verify-coloring", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == [
        {"u": [0, 0], "v": [0, 1], "distance": 1, "color": 1},
        {"u": [0, 0], "v": [-4, -4], "distance": 8, "color": 1},
    ]
    assert payload["checked"] == 216  # rows (0, 0) and (0, 1), 108 ball cells each


def test_verify_coloring_refuses_l_past_the_bfs_limit(tmp_path, capsys):
    path = tmp_path / "far.col"
    path.write_text("hexcolor v1\nl 1001\nlattice 2 0 0 2\n"
                    "cell 0 0 1\ncell 0 1 2\ncell 1 0 3\ncell 1 1 4\n")
    assert run(["verify-coloring", str(path)]) == 3
    assert "exceeds the BFS oracle limit of 1000" in capsys.readouterr().err


def test_verify_coloring_window_violations_pinned(tmp_path, capsys):
    # four colors of the l = 4 coloring of ((6, 6), (6, -6)) merged into one
    # on its radius-7 window: every clash is reported once, in (u, v) order
    base = single_coset_coloring(4, ((6, 6), (6, -6)))
    merged = {base.color_of(v) for v in [(0, 1), (1, 1), (-1, -1), (-2, 1)]}
    window = materialize_window(base, 7)
    window.assignment = {v: 1 if c in merged else c for v, c in window.assignment.items()}
    path = tmp_path / "bad.col"
    path.write_text(write_coloring(window))
    assert run(["verify-coloring", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == [
        {"u": [-2, 1], "v": [-1, -1], "distance": 3, "color": 1},
        {"u": [-2, 1], "v": [0, 1], "distance": 4, "color": 1},
        {"u": [-1, -1], "v": [0, 0], "distance": 2, "color": 1},
        {"u": [-1, -1], "v": [0, 1], "distance": 3, "color": 1},
        {"u": [-1, -1], "v": [1, 1], "distance": 4, "color": 1},
        {"u": [0, 0], "v": [0, 1], "distance": 1, "color": 1},
        {"u": [0, 0], "v": [1, 1], "distance": 2, "color": 1},
        {"u": [0, 1], "v": [1, 1], "distance": 3, "color": 1},
    ]
    assert payload["checked"] == 1640  # pairs of the 85 cells with offsets in the box


def test_verify_coloring_refuses_window_l_past_the_bfs_limit(tmp_path, capsys):
    path = tmp_path / "far.col"
    path.write_text("hexcolor v1\nl 100000\nwindow\ncell 0 0 1\ncell 0 1 2\n")
    assert run(["verify-coloring", str(path)]) == 3
    assert "exceeds the BFS oracle limit of 1000" in capsys.readouterr().err


def test_verify_coloring_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.col"
    path.write_text("hexcolor v1\nl 3\nwindow\ncell 0 0 zero\n")
    assert run(["verify-coloring", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_verify_coloring_missing_file(capsys):
    assert run(["verify-coloring", "/nonexistent/x.col"]) == 2


def test_unreadable_coloring_files_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.col"
    binary.write_bytes(b"hexcolor v1\n\xff\xfe\n")
    assert run(["verify-coloring", str(binary)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert run(["verify-coloring", str(tmp_path)]) == 2


@pytest.mark.parametrize("exc, code, prefix", [
    (InputError("l out of range"), 2, "error: "),
    (ValueError("a bug"), 4, "internal error: ValueError: "),
    (KeyError("a bug"), 4, "internal error: KeyError: "),
])
def test_exit_code_by_exception_type(monkeypatch, capsys, exc, code, prefix):
    # only the user-input type is a usage error; any other exception out
    # of the library is a bug
    import hexspan.cli as cli

    def fail(l):
        raise exc

    monkeypatch.setattr(cli, "span_even", fail)
    assert run(["span", "10"]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_argument_checks_exit_2(tmp_path, capsys):
    out = tmp_path / "x.dimacs"
    for argv in (["ring", "0"], ["clique", "0"],
                 ["check-observations", "--p-min", "3", "--p-max", "3"],
                 ["search-lattice", "0"], ["exact-window", "0", "--radius", "1",
                                           "--budget", "3"],
                 ["search-lattice", "0", "--multi-domain", "--colors", "4"],
                 ["search-lattice", "8", "--multi-domain", "--colors", "0"],
                 ["search-lattice", "8", "--multi-domain", "--colors", "-5"],
                 ["export-dimacs", "-3", "--radius", "2", "--out", str(out)]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_search_lattice_refuses_l_past_the_bfs_limit(capsys):
    # the ball offsets of the lattice searches grow as l**2
    for argv in (["search-lattice", "1001", "--max-det", "2"],
                 ["search-lattice", "1001", "--multi-domain", "--colors", "5"]):
        start = time.perf_counter()
        assert run(argv) == 3, argv
        assert time.perf_counter() - start < 1.0
        assert "BFS oracle limit of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, det", [
    # the default --max-det is 2 * colors + 24
    (["search-lattice", "8", "--multi-domain", "--colors", "1000000000"], 2000000024),
    (["search-lattice", "8", "--multi-domain", "--max-det", "2001"], 2001),
    (["search-lattice", "8", "--max-det", str(10 ** 12)], 10 ** 12),
    (["search-lattice", "8", "--max-det", "2001"], 2001),
])
def test_search_lattice_refuses_a_determinant_past_the_limit(argv, det, monkeypatch, capsys):
    import hexspan.coloring as coloring

    def fail(*args):
        raise AssertionError("lattice enumerated")

    monkeypatch.setattr(coloring, "_sublattice_blocks", fail)
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert (f"refused: period lattices up to determinant {det} exceed the limit of 2000"
            in capsys.readouterr().err)


def test_search_lattice_filters_every_basis_up_to_the_determinant_limit(capsys):
    # within the determinant limit the separation filter decides all 823,081
    # bases, at a cost that does not grow with l; none passes at l = 1000,
    # so the single-coset search finds nothing (exit 1)
    start = time.perf_counter()
    assert run(["search-lattice", "1000", "--max-det", "2000"]) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == "no single-coset lattice with det <= 2000\n"


def test_search_lattice_at_the_determinant_limit(capsys):
    # the limit itself is searched: the single-coset search stops at its
    # first lattice, and colors above max_det enumerate no lattice at all
    assert run(["search-lattice", "8", "--max-det", "2000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["colors"] == 38
    start = time.perf_counter()
    assert run(["search-lattice", "8", "--multi-domain", "--colors", "1000000000",
                "--max-det", "2000", "--json"]) == 1
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False and payload["lattices_tried"] == 0


@pytest.mark.parametrize("argv, p", [
    (["check-observations", "--p-min", "100000", "--p-max", "100000"], 100000),
    (["check-observations", "--p-min", "25", "--p-max", "25", "--json"], 25),
    # a range is refused by its top, before its first p is checked
    (["check-observations", "--p-min", "4", "--p-max", str(10 ** 12)], 10 ** 12),
])
def test_check_observations_refuses_p_past_the_limit(argv, p, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("battery run")

    monkeypatch.setattr(cli, "run_checks", fail)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: p {p} exceeds the observation battery's limit of 24\n"


def test_clique_command(capsys):
    # README's example
    assert run(["clique", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 46 and payload["max_pairwise_distance"] == 10


def test_clique_command_in_bounded_memory(capsys):
    # the whole 2461 x 2461 distance matrix and its temporaries took 150 MB
    tracemalloc.start()
    try:
        assert run(["clique", "40"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "max pairwise distance 80" in capsys.readouterr().out
    assert peak < 16 * 2 ** 20, peak


@pytest.mark.parametrize("p", range(1, 13))
def test_clique_command_matches_the_all_pairs_scan(p, capsys):
    assert run(["clique", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_pairwise_distance"] == pairwise_distances(ball((0, 0), p)).max() == 2 * p


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 40, 500])
def test_the_ring_holds_a_pair_at_the_clique_diameter(p):
    # ring p holds centre +- (0, p), 2p apart down one column, and no two
    # cells of the ball are farther apart: the clique command reads its
    # widest pair off the ring alone
    for center in ((0, 0), (1, 0), (7, -4), (10 ** 20 + 1, -7)):
        members = set(build_ring(center, p).members)
        top, bottom = (center[0], center[1] + p), (center[0], center[1] - p)
        assert top in members and bottom in members
        assert distance_closed(top, bottom) == 2 * p


def test_clique_command_refuses_a_diameter_past_the_bfs_limit(monkeypatch, capsys):
    # clique 501 has diameter 1002; its 377,254-cell ball is never built
    def fail(center, radius):
        raise AssertionError("ball built")

    monkeypatch.setattr(rings, "ball", fail)
    assert run(["clique", "501"]) == 3
    assert "BFS oracle limit of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("center", [(10 ** 20, 0), (10 ** 20 + 1, -7), (-10 ** 20, 2 ** 70 + 1)])
def test_clique_command_at_a_center_past_int64(center, capsys):
    # the widest pair is measured on the cells moved by an even translation
    # towards the origin; the members are printed where they are
    ci, cj = center
    near = (0, (ci + cj) % 2)
    assert run(["clique", "2", "--center", str(near[0]), str(near[1]), "--json"]) == 0
    expected = json.loads(capsys.readouterr().out)
    assert run(["clique", "2", "--center", str(ci), str(cj), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["center"] == [ci, cj] and payload["max_pairwise_distance"] == 4
    shift = (ci - near[0], cj - near[1])
    assert payload["members"] == [[i + shift[0], j + shift[1]] for i, j in expected["members"]]


def test_clique_command_at_p_300(capsys):
    start = time.perf_counter()
    assert run(["clique", "300", "--json"]) == 0
    assert time.perf_counter() - start < 5.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 135451 and payload["max_pairwise_distance"] == 600


# windows, centred and not, at a few l, and the reuse battery's annuli
# (rings p+1..2p-1) at its conflict distance 2p, for p = 4..6
_BLOCKED_SCANS = ([(ball(centre, r), l) for centre, r in (((0, 0), 0), ((0, 0), 1),
                                                         ((0, 0), 5), ((3, -2), 4))
                   for l in (1, 4, 8)]
                  + [([v for k in range(p + 1, 2 * p) for v in build_ring((0, 0), k).members],
                      2 * p) for p in (4, 5, 6)])


@pytest.mark.parametrize("block", [1, 7, 64, 2 ** 20])
def test_blocked_scans_do_not_depend_on_the_block_size(block, monkeypatch):
    # one row at a time, a few rows, and every window here in one block:
    # window_conflicts and the clique command's widest pair read the whole
    # distance matrix, unblocked
    monkeypatch.setattr("hexspan.coloring._BLOCK_ENTRIES", block)
    monkeypatch.setattr(cli, "_BLOCK_ENTRIES", block)
    for cells, l in _BLOCKED_SCANS:
        whole = pairwise_distances(cells)
        assert window_conflicts(cells, l) == bitmask_graph(whole <= l), (len(cells), l)
        assert cli._widest(cells, (0, 0)) == whole.max(), len(cells)


def test_search_lattice_command(tmp_path, capsys):
    out = tmp_path / "l8.col"
    assert run(["search-lattice", "8", "--max-det", "40",
                "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["colors"] == 38 and payload["verified"]
    assert payload["max_index"] == 40
    assert run(["verify-coloring", str(out)]) == 0


def test_search_lattice_max_det_bounds_the_single_coset_search(capsys):
    # the det-38 coloring lies above a bound of 30 (test_search_lattice_command
    # finds it within one of 40)
    assert run(["search-lattice", "8", "--max-det", "30", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "schema": "hexspan/1", "command": "search-lattice", "l": 8, "max_index": 30,
        "mode": "single-coset", "found": False}
    assert run(["search-lattice", "8", "--max-det", "30"]) == 1
    assert capsys.readouterr().out == "no single-coset lattice with det <= 30\n"


def test_the_max_index_option_is_gone(capsys):
    assert run(["search-lattice", "8", "--max-index", "40"]) == 2
    assert "unrecognized arguments: --max-index 40" in capsys.readouterr().err


def test_colors_selects_the_multi_domain_search(capsys):
    assert run(["search-lattice", "8", "--colors", "34", "--json"]) == 0
    alone = capsys.readouterr().out
    assert run(["search-lattice", "8", "--multi-domain", "--colors", "34", "--json"]) == 0
    assert capsys.readouterr().out == alone
    assert json.loads(alone)["target"] == 34


def test_search_lattice_json_keys(capsys):
    # hexspan/1 changes compatibly: each mode keeps the keys it had
    single = {"schema", "command", "l", "max_index", "mode", "found"}
    multi = {"schema", "command", "l", "target", "mode", "lattices_tried", "undecided", "found"}
    found = {"colors", "basis", "verified"}
    for argv, code, keys in ((["--max-det", "30"], 1, single),
                             ([], 0, single | found),
                             (["--colors", "32", "--max-det", "40"], 1, multi),
                             (["--multi-domain"], 0, multi | found | {"det"})):
        assert run(["search-lattice", "8", *argv, "--json"]) == code, argv
        assert set(json.loads(capsys.readouterr().out)) == keys, argv


def test_search_lattice_command_verifies_once(monkeypatch, capsys):
    # each library search verifies the coloring it returns, and the
    # command adds no second pass
    import hexspan.coloring as coloring

    calls = []
    verify = coloring.verify_lattice
    monkeypatch.setattr(coloring, "verify_lattice", lambda c: calls.append(c) or verify(c))
    monkeypatch.setattr(cli, "verify_lattice", None)
    for argv in (["8"], ["8", "--multi-domain"], ["8", "--colors", "34"]):
        assert run(["search-lattice", *argv, "--json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["verified"] is True
    assert len(calls) == 3


def test_an_invalid_single_coset_coloring_is_an_internal_failure(monkeypatch, capsys):
    # a separation filter that admits every basis hands over the det-2
    # lattice; search_lattice's own verification rejects it, a bug: exit 4
    import hexspan.coloring as coloring

    monkeypatch.setattr(coloring, "_separation_ok", lambda bases, l: [True] * len(bases))
    with pytest.raises(AssertionError, match="search produced an invalid coloring"):
        coloring.search_lattice(8, 40)
    assert run(["search-lattice", "8", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: search produced an invalid coloring")
    # python -O strips assert statements; the check must be a real raise
    code = ("import hexspan.coloring as c\n"
            "from hexspan.cli import run\n"
            "c._separation_ok = lambda bases, l: [True] * len(bases)\n"
            "raise SystemExit(run(['search-lattice', '8']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal check failed: search produced an invalid coloring")


def test_search_lattice_colors_above_span(tmp_path, capsys):
    out = tmp_path / "l8.col"
    assert run(["search-lattice", "8", "--multi-domain", "--colors", "34",
                "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == 34 and payload["colors"] <= 34 and payload["verified"]
    assert run(["verify-coloring", str(out)]) == 0


def test_search_lattice_mode_names_the_coloring(tmp_path, capsys):
    # the multi-domain loop finds a det-16 lattice that uses all 16 colors,
    # one per coset, and the search reports it as verify-coloring does
    out = tmp_path / "l5.col"
    assert run(["search-lattice", "5", "--multi-domain", "--colors", "16",
                "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det"] == payload["colors"] == 16
    assert payload["mode"] == "single-coset"
    assert run(["verify-coloring", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "lattice (single-coset)"


def test_search_lattice_undecided_is_not_refuted(monkeypatch, capsys):
    # the first lattice that reaches DSATUR hits the node limit: the search
    # proves nothing, so it refuses (exit 3) and prints no verdict
    def out_of_nodes(adj, budget, max_nodes):
        raise ResourceGuard(f"coloring search exceeded {max_nodes} nodes")

    monkeypatch.setattr("hexspan.coloring.solve_coloring", out_of_nodes)
    argv = ["search-lattice", "8", "--multi-domain", "--max-det", "66"]
    for json_flag in ([], ["--json"]):
        assert run(argv + json_flag) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("refused: periodic search exceeded 5000000 nodes at "
                                "det 66 basis ((7, -5), (33, -33))\n")
    # a search that decides every lattice and finds none still exits 1
    assert run(["search-lattice", "8", "--multi-domain", "--colors", "32",
                "--max-det", "40", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False and payload["undecided"] == 0


def test_render_window(tmp_path, capsys):
    coloring = exact_window_span(2, 1, 4).coloring
    src = tmp_path / "w.col"
    src.write_text(write_coloring(coloring))
    out = tmp_path / "w.svg"
    assert run(["render", str(src), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 4
    assert svg.startswith("<?xml")


def test_render_lattice_tiles_domain(tmp_path):
    coloring = single_coset_coloring(2, ((4, 4), (4, -4)))
    src = tmp_path / "lat.col"
    src.write_text(write_coloring(coloring))
    out = tmp_path / "lat.svg"
    assert run(["render", str(src), "--out", str(out), "--tile", "3"]) == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 32 * 9


@pytest.mark.parametrize("tile", ["0", "-2"])
def test_render_tile_below_one_exit_2(tmp_path, capsys, tile):
    coloring = single_coset_coloring(2, ((4, 4), (4, -4)))
    src = tmp_path / "lat.col"
    src.write_text(write_coloring(coloring))
    out = tmp_path / "lat.svg"
    assert run(["render", str(src), "--out", str(out), "--tile", tile]) == 2
    assert f"tile must be >= 1, got {tile}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tile", ["1001", str(10 ** 12)])
def test_render_refuses_a_tiling_past_the_cell_limit(tmp_path, capsys, tile):
    coloring = single_coset_coloring(2, ((4, 4), (4, -4)))
    src = tmp_path / "lat.col"
    src.write_text(write_coloring(coloring))
    out = tmp_path / "lat.svg"
    start = time.perf_counter()
    assert run(["render", str(src), "--out", str(out), "--tile", tile]) == 3
    assert time.perf_counter() - start < 1.0
    cells = int(tile) ** 2 * 32
    assert (f"tile {tile} of a 32-cell domain would draw {cells} cells, "
            "above the limit of 100000") in capsys.readouterr().err
    assert not out.exists()


def test_render_draws_a_tiling_at_the_cell_limit():
    # 55 x 55 tiles of a 32-cell domain are 96,800 cells, 56 x 56 are 100,352
    coloring = single_coset_coloring(2, ((4, 4), (4, -4)))
    assert render_svg(coloring, tile=55, labels=False).count("<polygon") == 55 * 55 * 32
    with pytest.raises(ResourceGuard):
        render_svg(coloring, tile=56)


def test_render_is_deterministic(tmp_path):
    coloring = exact_window_span(2, 1, 4).coloring
    one = render_svg(coloring)
    two = render_svg(coloring)
    assert one == two


def test_render_output_pinned():
    # sha256 of the SVG text: the l = 8 search's coloring at the default
    # tile 3 with labels, and without them, and at tiles 1 and 2; an
    # 11-colour window coloring, and the same moved far from the origin
    lattice = search_periodic(8).coloring
    window = exact_window_span(4, 3, 11).coloring
    far = WindowColoring(4, {(i + 10 ** 9 + 1, j - 3 * 10 ** 9): c
                             for (i, j), c in window.assignment.items()})
    for coloring, options, digest in (
            (lattice, {}, "f73cce9535d1aaf3bd699402d54624a376d823e2a6563bdd88dbf4c26a0fa482"),
            (window, {}, "85d2349f57cd691caf0f7717415d847ef93146592629fd6ffd9721f5cc0fd613"),
            (lattice, {"labels": False},
             "11aa002135bc95e257e20fd010292a4528cb06c662fa01ccfedac580daa4bb3f"),
            (lattice, {"tile": 1}, "3722f6a2c543d7bf65bd6a13ff6733136f8262bb64bbca46d4f9de98021d0144"),
            (lattice, {"tile": 2}, "7b8afbfb382c3537ace57a5e71be63f65885db3700a1476d5f5cf3f43c8cfffc"),
            (far, {}, "b84751f51af92ae560f4010ab18f6f63fb449d014722498a50cf0ec26f5acab6")):
        svg = render_svg(coloring, **{"tile": 3, "labels": True, **options})
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


def test_render_refuses_a_window_without_cells():
    with pytest.raises(InputError, match="no cells to draw"):
        render_svg(WindowColoring(4, {}))


def _past_a_float():
    # valid colorings whose drawing needs a float past about 1.8e308: the
    # l = 8 single-coset coloring on an equivalent basis with 401-digit
    # entries, a window with a cell 10**400 columns away, and one with the
    # color 10**400
    single = search_lattice(8)
    (p1, q1), (p2, q2) = single.basis
    far = 10 ** 400
    basis = ((p1 + far * p2, q1 + far * q2), (p2, q2))
    return [LatticeColoring(8, basis, single.assignment),
            WindowColoring(1, {(0, 0): 1, (far, 0): 1}),
            WindowColoring(1, {(0, 0): far, (0, 1): 1})]


@pytest.mark.parametrize("case", range(3))
def test_render_refuses_a_valid_coloring_past_a_float(case, tmp_path, capsys):
    src, out = tmp_path / "big.col", tmp_path / "big.svg"
    src.write_text(write_coloring(_past_a_float()[case]))
    assert run(["verify-coloring", str(src)]) == 0
    capsys.readouterr()
    assert run(["render", str(src), "--out", str(out)]) == 2
    assert "past the range a drawing can hold" in capsys.readouterr().err
    assert not out.exists()


def test_render_refuses_a_canvas_past_a_float():
    # each position fits a float, but the canvas between them does not
    for far in ((10 ** 307, 0), (0, 10 ** 308)):
        with pytest.raises(InputError, match="past the range a drawing can hold"):
            render_svg(WindowColoring(1, {(0, 0): 1, far: 1}))
    # a little nearer, the same two cells are drawn
    assert render_svg(WindowColoring(1, {(0, 0): 1, (10 ** 306, 0): 1})).count("<polygon") == 2


def test_render_malformed_exit_2(tmp_path, capsys):
    src = tmp_path / "nope.col"
    src.write_text("not a coloring\n")
    out = tmp_path / "nope.svg"
    assert run(["render", str(src), "--out", str(out)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_usage_error_exit_2():
    assert run(["span"]) == 2
    assert run(["no-such-command"]) == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hexspan", "span", "8", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["span"] == 33


def test_check_observations_empty_p_range_exit_2(capsys):
    # --p-min above --p-max selects no p: an input error, not a pass
    for argv in (["check-observations", "--p-min", "9", "--p-max", "5"],
                 ["check-observations", "--p-min", "9", "--p-max", "5", "--json"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: empty p range")


def test_the_p_option_is_gone(monkeypatch, capsys):
    # one p is --p-min P --p-max P; --p is a prefix of both
    def fail(*args):
        raise AssertionError("battery run")

    monkeypatch.setattr(cli, "run_checks", fail)
    assert run(["check-observations", "--p", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ambiguous option: --p could match --p-min, --p-max" in captured.err


def test_check_observations_text_output(capsys):
    # one line per report, its counterexample count on each failure, and
    # the overall verdict last; the refuted deep-union census fails p = 4
    assert run(["check-observations", "--p-min", "4", "--p-max", "4", "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert run(["check-observations", "--p-min", "4", "--p-max", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "p=4 shell-reuse: fail (6 counterexamples)" in lines
    assert lines == [f"p=4 {r['id']}: {r['verdict']}"
                     + (f" ({len(r['counterexamples'])} counterexamples)"
                        if r["verdict"] == "fail" else "")
                     for r in reports] + ["overall: fail"]


@pytest.mark.parametrize("bounds, ps", [
    ([], list(range(4, 13))),
    (["--p-min", "11"], [11, 12]),
    (["--p-max", "5"], [4, 5]),
    (["--p-min", "6", "--p-max", "7"], [6, 7]),
])
def test_check_observations_range_defaults(bounds, ps, monkeypatch, capsys):
    # a bound not given defaults to 4 (--p-min) or 12 (--p-max)
    monkeypatch.setattr(cli, "run_checks", lambda p: [])
    assert run(["check-observations", *bounds, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == ps


@pytest.mark.parametrize("l, colors, argv", [
    (-1, None, ["search-lattice", "-1", "--multi-domain"]),
    (0, None, ["search-lattice", "0", "--multi-domain"]),
    (-1, 5, ["search-lattice", "-1", "--colors", "5"]),
])
def test_search_periodic_checks_l_before_its_default_target(l, colors, argv, capsys):
    # l >= 1 is checked before the span of l, odd or below 8, is asked for
    with pytest.raises(InputError, match=f"^l must be >= 1, got {l}$"):
        search_periodic(l, colors=colors)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: l must be >= 1, got {l}\n"
