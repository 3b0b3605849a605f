"""List the holoflow functions that the CLI and acceptance tests never enter.

    PYTHONPATH=src python tests/reachability.py

Runs tests/test_cli.py and tests/test_acceptance.py in this process under a
sys.setprofile hook that records the code object of every Python call, then
prints each function defined under src/holoflow that no call entered, with
its line count, and the totals.  Functions are read from the source with
ast, nested ones and methods included, under their qualified names.  A code
object's first line is its first decorator line when it has decorators, so
a decorated function is matched at that line.  Lambdas are not listed, and
calls made in a subprocess are not seen.  The file has no test_ prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "holoflow"
TEST_FILES = ("test_cli.py", "test_acceptance.py")


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


def main() -> int:
    args = [str(HERE / name) for name in TEST_FILES]
    status, seen = entered_code([*args, "-q", "-p", "no:cacheprovider"])
    entered = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen}
    unentered = lines = 0
    print(f"\nholoflow functions that {' and '.join(TEST_FILES)} never enter:")
    for path in sorted(SRC.glob("*.py")):
        for first, count, name in sorted(defined_functions(path)):
            if (path.resolve(), first) not in entered:
                print(f"  {path.name}:{first} {name} ({count} lines)")
                unentered += 1
                lines += count
    print(f"{unentered} functions, {lines} lines never entered")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
