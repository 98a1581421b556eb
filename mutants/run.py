"""The mutant gate: every mutant of ``mutants.json`` must be killed.

Run from anywhere, with no options:

    python3 mutants/run.py

``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory.  The named tests are first run on the unmutated copy, and must
pass.  Then each mutant's ``old`` text, which must occur exactly once in
its file, is replaced by its ``new`` text, only the mutant's tests are run
(``-x -q -p no:cacheprovider``), and the file is restored.  A mutant is
killed when its tests fail.  The ``equivalent`` entries are not run, as
no test can tell them from the code; each live one's ``old`` text must
still occur exactly once, so that the list stays true to the code.

Exits 0 if every mutant is killed, and 1 if one survives, an ``old`` text
does not match exactly once, or the unmutated tests fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "mutants.json"


def _pytest(copy: Path, tests: list[str]) -> int:
    # no bytecode: a mutant and its restored file can share a size and an
    # mtime second, and a stale .pyc would then run the wrong source
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _matches(copy: Path, entry: dict) -> str | None:
    """The file's text if ``old`` occurs in it exactly once, else None."""
    text = (copy / entry["file"]).read_text()
    return text if text.count(entry["old"]) == 1 else None


def main() -> int:
    data = json.loads(DATA.read_text())
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        where = subprocess.run(
            [sys.executable, "-c", "import hexspan; print(hexspan.__file__)"], cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")}, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            print(f"hexspan is not imported from the copy: {where.stdout or where.stderr}")
            return 1
        for entry in data["equivalent"]:
            if entry["old"] is not None and _matches(copy, entry) is None:
                print(f"STALE equivalent {entry['name']}: old text not found exactly once")
                failures += 1
        tests = sorted({test for entry in data["mutants"] for test in entry["tests"]})
        if _pytest(copy, tests) != 0:
            print("the unmutated copy fails its tests")
            return 1
        for entry in data["mutants"]:
            path = copy / entry["file"]
            text = _matches(copy, entry)
            if text is None:
                print(f"STALE    {entry['name']}: old text not found exactly once")
                failures += 1
                continue
            path.write_text(text.replace(entry["old"], entry["new"]))
            try:
                killed = _pytest(copy, entry["tests"]) != 0
            finally:
                path.write_text(text)
            print(f"{'killed  ' if killed else 'SURVIVED'} {entry['name']}", flush=True)
            failures += not killed
    print(f"{len(data['mutants'])} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
