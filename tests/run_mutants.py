"""Check that the lane tests kill every simulator mutant.

Usage (from the repository root)::

    python tests/run_mutants.py [tests/mutants/simulator.txt]

Each line of the fixture names one source replacement in
``src/repro/net/simulator.py`` (see the fixture's header).  The script
first runs the selected tests on an unmutated copy of the tree, which
must pass; then, for each mutant, it applies the replacement to a fresh
temporary copy and runs the same tests, which must fail.  It exits
non-zero if the unmutated copy fails, a mutant does not apply, or any
mutant survives.  The file is not named ``test_*`` so pytest does not
collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/repro/net/simulator.py")
TEST_FILES = ("tests/__init__.py", "tests/conftest.py",
              "tests/test_net_simulator.py", "tests/test_net_network.py",
              "pyproject.toml")
PYTEST_ARGS = ("tests/test_net_simulator.py", "tests/test_net_network.py",
               "-k", "QueueDifferential or Lanes", "--hypothesis-seed=23")


def parse_fixture(path: Path) -> list:
    """``(function, old line, new line)`` per mutant line."""
    mutants = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        function, _, replacement = line.partition(": ")
        old, sep, new = replacement.partition(" ==> ")
        if not sep:
            raise SystemExit(f"malformed mutant line: {line!r}")
        mutants.append((function, old.strip(), new.strip()))
    return mutants


def _function_lines(tree: ast.Module, qualname: str) -> range:
    owner, _, name = qualname.rpartition(".")
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == owner:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return range(node.lineno - 1, node.end_lineno)
    raise SystemExit(f"no function {qualname} in {TARGET}")


def mutate(source: str, function: str, old: str, new: str) -> str:
    """``source`` with the one line of ``function`` that reads ``old``
    (stripped) replaced by ``new`` at the same indentation."""
    lines = source.splitlines(keepends=True)
    span = _function_lines(ast.parse(source), function)
    hits = [i for i in span if lines[i].strip() == old]
    if len(hits) != 1:
        raise SystemExit(f"{function}: {old!r} matches {len(hits)} lines, "
                         "not one")
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + new + "\n"
    return "".join(lines)


def run_tests(source: str) -> subprocess.CompletedProcess:
    """The selected tests on a temporary copy of the tree whose target
    module is ``source``."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / "tests").mkdir()
        for name in TEST_FILES:
            shutil.copy(ROOT / name, Path(tmp) / name)
        (Path(tmp) / TARGET).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *PYTEST_ARGS],
            cwd=tmp, env=env, capture_output=True, text=True)


def main(argv: list) -> int:
    fixture = Path(argv[1]) if len(argv) > 1 else (
        ROOT / "tests" / "mutants" / "simulator.txt")
    source = (ROOT / TARGET).read_text()
    mutants = parse_fixture(fixture)
    # Every mutant must apply before anything runs.
    mutated = [mutate(source, *mutant) for mutant in mutants]
    baseline = run_tests(source)
    if baseline.returncode != 0:
        print(baseline.stdout[-3000:], baseline.stderr[-3000:])
        print("the unmutated tree fails the selected tests")
        return 1
    survivors = 0
    for (function, old, new), mutant in zip(mutants, mutated):
        killed = run_tests(mutant).returncode != 0
        survivors += not killed
        print(f"{'killed ' if killed else 'SURVIVED'}  {function}: "
              f"{old} ==> {new}")
    print(f"{len(mutants) - survivors}/{len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
