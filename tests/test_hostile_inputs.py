"""Hostile integer arguments, as a deterministic table: each subcommand
with each of its integer arguments set to -1, 0, 1, 10**12 and 10**30,
and the other arguments small and valid, ends within 2 s with an exit
code of 0..3 and no internal error.

The multi-domain search below the span,
``search-lattice 8 --multi-domain --colors 32 --max-det 200``, is not in
the table: it stops only at its node budget, about 37 s in.
``test_the_search_below_the_span_stops_at_its_node_budget`` runs it with
a smaller budget."""

import ast
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import hexspan
from hexspan import coloring
from hexspan.cli import run
from hexspan.solver import solve_coloring

VALUES = ["-1", "0", "1", str(10 ** 12), str(10 ** 30)]

# "N" takes each value in turn; "TMP" is the test's own directory
COMMANDS = [
    "distance N 0 1 1", "distance 0 N 1 1", "distance 0 0 N 1", "distance 0 0 1 N",
    "ring N", "ring 2 --center N 0", "ring 2 --center 0 N",
    "clique N", "clique 2 --center N 0", "clique 2 --center 0 N",
    "shell N 1", "shell 5 N",
    "span N",
    "check-observations --p-min N --p-max N",
    "check-observations --p-min N --p-max 5",
    "check-observations --p-min 4 --p-max N",
    "search-lattice N", "search-lattice N --multi-domain",
    "search-lattice N --colors 20 --max-det 40",
    "search-lattice 8 --max-det N", "search-lattice 8 --multi-domain --max-det N",
    "search-lattice 8 --colors N --max-det 40",
    "exact-window N --radius 2 --budget 11", "exact-window 4 --radius N --budget 11",
    "exact-window 4 --radius 2 --budget N",
    "export-dimacs N --radius 2 --out TMP/w.dimacs",
    "export-dimacs 4 --radius N --out TMP/w.dimacs",
    "render TMP/lattice.col --out TMP/out.svg --tile N",
]

LATTICE = ("hexcolor v1\nl 3\nlattice 2 0 0 2\n"
           "cell 0 0 1\ncell 0 1 2\ncell 1 0 3\ncell 1 1 4\n")
WINDOW = "hexcolor v1\nl 3\nwindow\ncell 0 0 1\ncell 0 1 2\n"

# one field of a coloring file set to N: its l, a lattice entry, or an
# entry of its first cell
FILES = [
    ("window", "l 3", "l N"), ("window", "cell 0 0 1", "cell N 0 1"),
    ("window", "cell 0 0 1", "cell 0 N 1"), ("window", "cell 0 0 1", "cell 0 0 N"),
    ("lattice", "l 3", "l N"), ("lattice", "lattice 2 0", "lattice N 0"),
    ("lattice", "0 0 2\n", "0 N 2\n"), ("lattice", "cell 0 0 1", "cell N 0 1"),
    ("lattice", "cell 0 0 1", "cell 0 N 1"), ("lattice", "cell 0 0 1", "cell 0 0 N"),
]

FILE_COMMANDS = [command.replace("FILE", f"TMP/{kind}-{n}.col")
                 for command in ("verify-coloring FILE", "render FILE --out TMP/out.svg")
                 for n, (kind, _, _) in enumerate(FILES)]

CASES = [(command, value) for command in COMMANDS + FILE_COMMANDS for value in VALUES]


def _write_files(tmp_path, value):
    (tmp_path / "lattice.col").write_text(LATTICE)
    for n, (kind, old, new) in enumerate(FILES):
        text = {"window": WINDOW, "lattice": LATTICE}[kind]
        (tmp_path / f"{kind}-{n}.col").write_text(text.replace(old, new.replace("N", value), 1))


def _timeout(signum, frame):
    # pytest.fail raises a BaseException, which run's handlers let through
    pytest.fail("the case ran past 2 s")


def _run_within_2_s(argv):
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(2)
    try:
        return run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, value", CASES)
def test_hostile_integer_argument(command, value, tmp_path, capsys):
    _write_files(tmp_path, value)
    argv = [value if token == "N" else token.replace("TMP", str(tmp_path))
            for token in command.split()]
    code = _run_within_2_s(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, err)
    assert not any(line.startswith("internal") for line in err.splitlines()), err


def test_the_search_below_the_span_stops_at_its_node_budget(monkeypatch, capsys):
    # DSATUR runs on lattice after lattice below the span; the lattices
    # share one node budget, and when it runs out the search refuses with
    # no verdict
    budget = 20_000
    monkeypatch.setattr(coloring, "MAX_NODES", budget)
    spent = []

    def spy(adj, colors, max_nodes):
        assert sum(spent) + max_nodes <= budget
        solution, nodes = solve_coloring(adj, colors, max_nodes)
        spent.append(nodes)
        return solution, nodes

    monkeypatch.setattr(coloring, "solve_coloring", spy)
    argv = ["search-lattice", "8", "--multi-domain", "--colors", "32", "--max-det", "200"]
    assert _run_within_2_s(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: periodic search exceeded 20000 nodes at det ")
    assert len(captured.err.splitlines()) == 1
    # several lattices were decided within the budget before it ran out
    assert len(spent) > 1 and sum(spent) <= budget


def test_hostile_refusals_survive_optimize_flag(tmp_path):
    # python -O strips assert statements; the refusals must be real raises
    huge = str(10 ** 30)
    (tmp_path / "lattice.col").write_text(LATTICE.replace("l 3", f"l {huge}"))
    argvs = [["distance", "0", "0", "0", huge],
             ["check-observations", "--p-min", huge, "--p-max", huge],
             ["check-observations", "--p-min", "7", "--p-max", "5"],
             ["search-lattice", "8", "--max-det", huge],
             ["exact-window", "4", "--radius", huge, "--budget", "11"],
             ["verify-coloring", str(tmp_path / "lattice.col")]]
    code = ("from hexspan.cli import run\n"
            f"print([run(argv) for argv in {argvs!r}])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[3, 3, 2, 3, 3, 3]"
    assert not any(line.startswith("internal") for line in proc.stderr.splitlines())


def test_no_module_of_the_package_asserts():
    # python -O strips assert statements, so every check in the package
    # must be a real raise; the python -O subprocess tests run a few of them
    modules = sorted(Path(hexspan.__file__).parent.rglob("*.py"))
    assert {"cli.py", "coloring.py", "grid.py"} <= {path.name for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"
