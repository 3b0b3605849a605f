"""Swap one operator at a time in a holoflow module and see whether the tests notice.

    python tests/mutants.py [MODULE ...]
    python tests/mutants.py --check [MODULE ...]

For each MODULE under src/holoflow (default: every module in EQUIVALENT),
the source is read with ast, and every binary or augmented + and - and every
==, !=, <, <=, > and >= comparison outside an f-string is a mutation site.
A mutant swaps one site: + with -, == with !=, < with <=, > with >=.  Only
that token changes, so the mutant keeps every other character and line of
the file.

The repository is copied once to a temporary directory, with no .git or
caches.  The test files there that import the module, its own test file
first, must pass unmutated; then each mutant is written over the copy's module
in turn and `pytest -x -q` runs those files, with the copy's src as
PYTHONPATH and no bytecode written.  A failing run kills the mutant, and so
does a run past five times the clean run's wall time plus 30 s.  A passing
run means the mutant survived.

A mutant is named by the function it is in, its swap and its place among
that function's sites with that swap, so a name survives edits elsewhere in
the module.  EQUIVALENT lists, per module, the survivors that no test can
kill, each with the reason.  --check exits 1 when a survivor is not listed,
or when a listed name is killed or no longer a site.  The file has no test_
prefix, so pytest does not collect it.  It uses the stdlib only; pytest runs
in a subprocess.  On a 2-core x86_64 host with Python 3.11.7, states.py's 61
mutants take about 250 s and verify.py's 66 about 650 s.
"""

from __future__ import annotations

import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SWAPS = {"+": "-", "-": "+", "+=": "-=", "-=": "+=", "==": "!=", "!=": "==",
         "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_SITE_NODES = (ast.Add, ast.Sub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)

# module -> {mutant name: why no test can kill it}; {} when every mutant is killed
EQUIVALENT = {
    "states.py": {},
    "verify.py": {
        "beta_extended < -> <= #2": "j <= 0 reflects j = 0 to -0, which is 0",
        "compat_residual_a + -> - #1": "a_int is a0 at every scale, so the numerator is"
                                       " 4 a0 - 4 a0 at scale n - 1 as at n + 1",
        "_compat_class.numerator + -> - #1": "each plane's child corners are +-w_a +-w_b, so"
                                             " the steps e and -e come with the same count",
    },
}


class Mutant(NamedTuple):
    name: str  # "function old -> new #k"
    line: int
    col: int  # in characters
    old: str
    new: str


def _char_col(lines: list[str], line: int, byte_col: int) -> int:
    """ast's UTF-8 byte offset on a 1-based line as a character offset."""
    return len(lines[line - 1].encode()[:byte_col].decode())


def mutants(path: Path) -> list[Mutant]:
    """Every site of the module at path, in source order."""
    source = path.read_text()
    lines = source.splitlines()
    ops = [(tok.start, tok.string) for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP and tok.string in SWAPS]
    sites = []

    def between(a: ast.AST, b: ast.AST) -> tuple:
        """The one swappable token after a ends and before b starts."""
        lo = (a.end_lineno, _char_col(lines, a.end_lineno, a.end_col_offset))
        hi = (b.lineno, _char_col(lines, b.lineno, b.col_offset))
        found = [(start, text) for start, text in ops if lo <= start < hi]
        assert len(found) == 1, (path.name, lo, hi, found)
        return found[0]

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qualname}.{child.name}" if qualname else child.name)
                continue
            if isinstance(child, ast.JoinedStr):
                continue  # an f-string is one token: its operators change only a message
            pairs = []
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, _SITE_NODES):
                pairs.append((child.target, child.value) if isinstance(child, ast.AugAssign)
                             else (child.left, child.right))
            elif isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                pairs += [(a, b) for a, b, op in zip(operands, operands[1:], child.ops)
                          if isinstance(op, _SITE_NODES)]
            for a, b in pairs:
                sites.append((*between(a, b), qualname or "<module>"))
            visit(child, qualname)

    visit(ast.parse(source, str(path)), "")
    out, seen = [], {}
    for (line, col), old, qualname in sorted(sites):
        key = f"{qualname} {old} -> {SWAPS[old]}"
        seen[key] = seen.get(key, 0) + 1
        out.append(Mutant(f"{key} #{seen[key]}", line, col, old, SWAPS[old]))
    return out


def mutated(source: str, mutant: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[mutant.line - 1]
    assert text[mutant.col:mutant.col + len(mutant.old)] == mutant.old
    lines[mutant.line - 1] = text[:mutant.col] + mutant.new + text[mutant.col + len(mutant.old):]
    return "".join(lines)


def importing_tests(module: str) -> list[str]:
    """The test files that import holoflow's module, test_<module> first."""
    stem = Path(module).stem
    pattern = re.compile(rf"\bholoflow\.{stem}\b|^from holoflow import .*\b{stem}\b", re.M)
    files = sorted(p.name for p in HERE.glob("test_*.py") if pattern.search(p.read_text()))
    return sorted(files, key=lambda name: name != f"test_{stem}.py")


def run_tests(root: Path, files: list[str], timeout: float) -> bool:
    """Whether pytest -x passes on the copy's test files within timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *(f"tests/{name}" for name in files)],
                              cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run_module(root: Path, module: str, check: bool) -> bool:
    """Run every mutant of module in the copy at root; whether --check's conditions hold."""
    target = root / "src" / "holoflow" / module
    source = target.read_text()
    files = importing_tests(module)
    started = time.perf_counter()
    if not run_tests(root, files, timeout=3600):
        print(f"{module}: the tests fail unmutated: {' '.join(files)}")
        return False
    timeout = 5 * (time.perf_counter() - started) + 30
    listed = EQUIVALENT.get(module, {})
    sites = mutants(target)
    print(f"{module}: {len(sites)} mutants against {' '.join(files)}")
    survivors = []
    try:
        for mutant in sites:
            target.write_text(mutated(source, mutant))
            killed = not run_tests(root, files, timeout)
            if not killed:
                survivors.append(mutant.name)
            mark = "killed" if killed else ("equivalent" if mutant.name in listed else "SURVIVED")
            print(f"  {module}:{mutant.line} {mutant.name}: {mark}", flush=True)
    finally:
        target.write_text(source)
    unlisted = [name for name in survivors if name not in listed]
    stale = sorted(set(listed) - set(survivors))
    for name in stale:
        print(f"  EQUIVALENT names {name}, which is "
              f"{'killed' if name in {m.name for m in sites} else 'not a site'}")
    print(f"{module}: {len(sites)} mutants, {len(sites) - len(survivors)} killed,"
          f" {len(survivors)} survived ({len(unlisted)} not in EQUIVALENT),"
          f" {len(stale)} stale entries, in {time.perf_counter() - started:.0f} s")
    return not check or not (unlisted or stale)


def main() -> int:
    args = sys.argv[1:]
    check = "--check" in args
    modules = [a for a in args if a != "--check"] or sorted(EQUIVALENT)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "results"))
        for module in modules:
            ok = run_module(root, module, check) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
