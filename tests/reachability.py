"""List the holoflow functions that the CLI and acceptance tests never enter.

    PYTHONPATH=src python tests/reachability.py
    PYTHONPATH=src python tests/reachability.py --check
    PYTHONPATH=src python tests/reachability.py --lines [pytest args]

Runs tests/test_cli.py and tests/test_acceptance.py in this process under a
sys.setprofile hook that records the code object of every Python call, then
prints each function defined under src/holoflow that no call entered, with
its line count, and the totals.  Functions are read from the source with
ast, nested ones and methods included, under their qualified names.  A code
object's first line is its first decorator line when it has decorators, so
a decorated function is matched at that line.  Lambdas are not listed, and
calls made in a subprocess are not seen.  The file has no test_ prefix, so
pytest does not collect it.

--check runs the same two files and exits 1 when a function outside
ALLOWED is never entered, or when an ALLOWED entry names a function that is
entered or no longer defined; it exits 0 only when the unentered functions
are exactly ALLOWED's.  It takes about 14 s on a 2-core x86_64 host with
Python 3.11.7.

--lines runs the pytest selection given after it (default: all of tests/)
under a sys.settrace tracer that follows only frames of files under
src/holoflow, and prints each statement inside a function there that never
ran, grouped by function.  A statement counts as run when any of its own
lines (its lines less those of the statements it holds) with code ran;
statements with no code, such as a docstring or a global, are not listed.
Tracing is slow: on a 2-core x86_64 host with Python 3.11.7 it took about
113 s for the whole of tests/ and 19 s for test_cli.py and test_acceptance.py.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "holoflow"
TEST_FILES = ("test_cli.py", "test_acceptance.py")

# "file qualified-name" -> why the CLI and acceptance tests may never enter it
ALLOWED = {
    "_frozen.py Frozen.__setattr__": "Frozen guard: raises on assignment",
    "_frozen.py Frozen.__delattr__": "Frozen guard: raises on deletion",
    "cells.py SignedSymmetry.compose": "reference route: the group law act is tested against",
    "cells.py SignedSymmetry.inverse": "reference route: the group law act is tested against",
    "cells.py cells_near": "perfbench-bound: the tracer wraps it",
    "operators.py CubicalFamilyOp._b_table": "reference route: the pull oracle for _push_row",
    "operators.py CubicalFamilyOp.__eq__": "__eq__",
    "operators.py CubicalFamilyOp.__repr__": "__repr__",
    "operators.py ExplicitOp.coeff_b": "perfbench-bound: the tracer wraps it",
    "operators.py ExplicitOp.__eq__": "__eq__",
    "operators.py ExplicitOp.__repr__": "__repr__",
    "operators.py SphereOp.__eq__": "__eq__",
    "operators.py SphereOp.__repr__": "__repr__",
    "poly.py Polynomial.__neg__": "ring operator of the value type, under __sub__",
    "poly.py Polynomial.__sub__": "ring operator of the value type",
    "poly.py Polynomial.__pow__": "perfbench-bound: substitute's powers, which the tracer wraps",
    "poly.py Polynomial.__bool__": "truth value of the value type: not f tests for zero",
    "poly.py Polynomial.derive": "perfbench-bound: the tracer wraps it",
    "poly.py Polynomial.substitute": "perfbench-bound: the tracer wraps it",
    "poly.py Polynomial.__repr__": "__repr__",
    "poly.py Polynomial.__str__": "__repr__'s text",
    "poly.py format_polynomial": "__repr__'s text, which parse_polynomial reads back",
    "poly.py LinearIdeal.rank": "__repr__ reads it",
    "poly.py LinearIdeal.__repr__": "__repr__",
    "states.py LambdaPoly.__repr__": "__repr__",
    "states.py LambdaPoly.__str__": "__repr__'s text",
    "states.py CovarianceMatrix.__eq__": "__eq__",
    "states.py CovarianceMatrix.__repr__": "__repr__",
    "states.py _det_bareiss": "reference route: exact minors psd_probe is tested against",
    "verify.py gauge_residual": "single-site API: one gauge residual, the sweep's oracle",
    "verify.py alpha_extended": "reference route: invariance_table_residual's alpha",
    "verify.py beta_extended": "reference route: invariance_table_residual's beta",
    "verify.py invariance_table_residual": "reference route: the index-space gauge identity",
    "verify.py sphere_condition": "reference route: the descent condition over coeff_a/coeff_b",
}


def defined_functions(path: Path) -> list[tuple[int, int, str]]:
    """(first line, line count, qualified name) of every function defined in path."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out.append((first, child.end_lineno - first + 1, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(path.read_text(), str(path)), "")
    return out


def entered_code(args: list[str]) -> tuple[int, set]:
    """pytest's exit status over args, and the code objects every call entered meanwhile."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.setprofile(None)
    return status, seen


def executed_lines(args: list[str]) -> tuple[int, set]:
    """pytest's exit status over args, and the (resolved path, line) of every line run
    meanwhile in a file under SRC."""
    ran, inside = set(), {}

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == SRC.resolve()
        return on_line if inside[name] else None

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, {(Path(name).resolve(), line) for name, line in ran}


def code_lines(path: Path) -> set[int]:
    """The lines of path that hold code, from every code object compiled from it."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def function_statements(path: Path) -> list[tuple[str, int, ast.stmt]]:
    """(qualified function name, its first line, statement) for every statement in a
    function body, nested statements included, but not those of nested functions."""
    out = []

    def visit(node, prefix: str, owner) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is not None:
                    out.append((*owner, child))
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                visit(child, prefix + child.name + ".", (prefix + child.name, first))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", None)
            elif isinstance(child, ast.stmt):
                if owner is not None:
                    out.append((*owner, child))
                visit(child, prefix, owner)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def own_lines(stmt: ast.stmt) -> set[int]:
    """stmt's lines less those of the statements it holds; a def's body is its own."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    lines.update(d.lineno for d in getattr(stmt, "decorator_list", ()))
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def main_lines(args: list[str]) -> int:
    status, ran = executed_lines([*(args or [str(HERE)]), "-p", "no:cacheprovider"])
    count = functions = 0
    print(f"\nholoflow statements that {' '.join(args) or 'tests/'} never ran:")
    for path in sorted(SRC.glob("*.py")):
        text, code = path.read_text().splitlines(), code_lines(path)
        missed: dict = {}
        for name, first, stmt in function_statements(path):
            lines = own_lines(stmt) & code
            if lines and not any((path.resolve(), line) in ran for line in lines):
                missed.setdefault((first, name), []).append(stmt.lineno)
        for (first, name), lines in sorted(missed.items()):
            print(f"  {path.name}:{first} {name}")
            for line in lines:
                print(f"      {line}: {text[line - 1].strip()}")
            count += len(lines)
        functions += len(missed)
    print(f"{count} statements in {functions} functions never ran")
    return 0 if status == 0 else 1


def main() -> int:
    if sys.argv[1:2] == ["--lines"]:
        return main_lines(sys.argv[2:])
    check = sys.argv[1:2] == ["--check"]
    args = [str(HERE / name) for name in TEST_FILES]
    status, seen = entered_code([*args, "-q", "-p", "no:cacheprovider"])
    entered = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen}
    unentered, lines, defined = set(), 0, set()
    print(f"\nholoflow functions that {' and '.join(TEST_FILES)} never enter:")
    for path in sorted(SRC.glob("*.py")):
        for first, count, name in sorted(defined_functions(path)):
            key = f"{path.name} {name}"
            defined.add(key)
            if (path.resolve(), first) not in entered:
                reason = ALLOWED.get(key, "NOT ALLOWED" if check else None)
                print(f"  {path.name}:{first} {name} ({count} lines)"
                      + (f": {reason}" if reason else ""))
                unentered.add(key)
                lines += count
    print(f"{len(unentered)} functions, {lines} lines never entered")
    if not check:
        return 0 if status == 0 else 1
    unexpected = unentered - set(ALLOWED)
    stale = sorted(set(ALLOWED) - unentered)
    for key in stale:
        print(f"ALLOWED names {key}, which is {'entered' if key in defined else 'not defined'}")
    print(f"{len(unexpected)} unentered functions outside ALLOWED, {len(stale)} stale entries")
    return 0 if status == 0 and not unexpected and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
