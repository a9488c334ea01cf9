"""Check that the selected tests kill every mutant of a fixture.

Usage (from the repository root)::

    python tests/run_mutants.py [tests/mutants/simulator.txt ...]

With no argument it runs every fixture in ``tests/mutants``.  A
fixture's header names its pytest selection, and each section its
target file::

    # pytest: tests/test_x.py -k Selection --hypothesis-seed=23
    # target: src/repro/pkg/module.py

Each other non-comment line names one source replacement in the current
target (``<function>: <source line> ==> <replacement line>``; see
``tests/mutants/simulator.txt``).  For each fixture the script first
runs its selection on an unmutated copy of the tree, which must pass;
then, for each mutant, it applies the replacement to a fresh temporary
copy and runs the same tests, which must fail.  It exits non-zero if an
unmutated copy fails, a mutant does not apply, or any mutant survives.
The file is not named ``test_*`` so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_fixture(path: Path) -> tuple:
    """``(pytest arguments, mutants)``, each mutant ``(target, function,
    old line, new line)``."""
    pytest_args, target, mutants = None, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# pytest:"):
            pytest_args = tuple(shlex.split(line.partition(":")[2]))
            continue
        if line.startswith("# target:"):
            target = Path(line.partition(":")[2].strip())
            continue
        if not line.strip() or line.startswith("#"):
            continue
        function, _, replacement = line.partition(": ")
        old, sep, new = replacement.partition(" ==> ")
        if not sep or target is None:
            raise SystemExit(f"malformed mutant line (or no target "
                             f"before it): {line!r}")
        mutants.append((target, function, old.strip(), new.strip()))
    if not pytest_args:
        raise SystemExit(f"{path}: no '# pytest:' header")
    return pytest_args, mutants


def _function_lines(tree: ast.Module, qualname: str) -> range:
    """The lines of module function ``name`` or method ``Class.name``."""
    owner, _, name = qualname.rpartition(".")
    body = tree.body
    if owner:
        body = [node for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == owner
                for node in cls.body]
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno - 1, node.end_lineno)
    raise SystemExit(f"no function {qualname}")


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


def run_tests(pytest_args: tuple, target=None,
              source: str = "") -> subprocess.CompletedProcess:
    """The selected tests on a temporary copy of the tree, with
    ``target``'s source replaced by ``source`` if a target is given."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", Path(tmp) / "pyproject.toml")
        if target is not None:
            (Path(tmp) / target).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *pytest_args],
            cwd=tmp, env=env, capture_output=True, text=True)


def check_fixture(fixture: Path) -> int:
    """Surviving mutants of ``fixture`` (1 if its unmutated run fails)."""
    pytest_args, mutants = parse_fixture(fixture)
    # Every mutant must apply before anything runs.
    mutated = [mutate((ROOT / target).read_text(), function, old, new)
               for target, function, old, new in mutants]
    baseline = run_tests(pytest_args)
    if baseline.returncode != 0:
        print(baseline.stdout[-3000:], baseline.stderr[-3000:])
        print(f"{fixture}: the unmutated tree fails the selected tests")
        return 1
    survivors = 0
    for (target, function, old, new), source in zip(mutants, mutated):
        killed = run_tests(pytest_args, target, source).returncode != 0
        survivors += not killed
        print(f"{'killed ' if killed else 'SURVIVED'}  {target.name} "
              f"{function}: {old} ==> {new}")
    print(f"{fixture}: {len(mutants) - survivors}/{len(mutants)} "
          "mutants killed")
    return survivors


def main(argv: list) -> int:
    fixtures = ([Path(arg) for arg in argv[1:]]
                or sorted((ROOT / "tests" / "mutants").glob("*.txt")))
    failed = sum([check_fixture(fixture) for fixture in fixtures])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
