import json
import subprocess
import sys

import pytest

from hexspan.cli import export_dimacs, run
from hexspan.coloring import (
    WindowColoring,
    exact_window_span,
    materialize_window,
    single_coset_coloring,
    window_conflicts,
    write_coloring,
)
from hexspan.errors import InputError
from hexspan.render import render_svg
from hexspan.rings import ball
from hexspan.solver import ResourceGuard


def test_span_json(capsys):
    assert run(["span", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "hexspan/1"
    assert payload["span"] == 48 and payload["l"] == 10


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


def test_check_observations_single_ring_bounds(capsys):
    # p=4 includes a genuine shell-reuse breach, so overall verdict fails
    assert run(["check-observations", "--p", "4", "--json"]) == 1
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
    assert run(["check-observations", "--p", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: ")
    assert "closer than 11" in err


def test_exact_window_command(capsys):
    assert run(["exact-window", "2", "--radius", "1", "--budget", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run(["exact-window", "2", "--radius", "1", "--budget", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_exact_window_guard_exit_code(capsys):
    assert run(["exact-window", "4", "--radius", "12", "--budget", "50"]) == 3
    assert "refused" in capsys.readouterr().err


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
    # the export as it was written before it walked set bits: every pair
    # (a, b), a < b, probed in the bitmask graph
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


def test_argument_checks_exit_2(capsys):
    for argv in (["ring", "0"], ["clique", "0"], ["check-observations", "--p", "3"],
                 ["search-lattice", "0"], ["exact-window", "0", "--radius", "1",
                                           "--budget", "3"]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


def test_search_lattice_command(tmp_path, capsys):
    out = tmp_path / "l8.col"
    assert run(["search-lattice", "8", "--max-index", "40",
                "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["colors"] == 38 and payload["verified"]
    assert run(["verify-coloring", str(out)]) == 0


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


def test_render_is_deterministic(tmp_path):
    coloring = exact_window_span(2, 1, 4).coloring
    one = render_svg(coloring)
    two = render_svg(coloring)
    assert one == two


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
