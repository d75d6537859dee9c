"""Source size of ``src/jbtrotter``, per module and in total.

    python3 tests/src_size.py [SRC_DIR]

Two measures per file:

- ``code``: lines that are not blank, not a comment and not part of a
  docstring (the string that opens a module, class or function body);
- ``nonblank``: lines that are not blank and not a comment, docstrings
  included.

A line is a comment if it starts with ``#`` after its indentation.
SRC_DIR defaults to the ``src/jbtrotter`` next to this file's directory,
so the same script measures another checkout, or any directory of
Python files such as ``tests``, when given its path.  The name column is
as wide as the longest file name.  (No
test_ prefix: pytest does not collect this file.)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) that belong to a docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple[int, int]:
    """(code, nonblank) line counts of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = nonblank = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        nonblank += 1
        if number not in docs:
            code += 1
    return code, nonblank


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "jbtrotter"
    src = Path(argv[0]) if argv else default
    files = sorted(src.glob("*.py"))
    if not files:
        print(f"no Python files under {src}", file=sys.stderr)
        return 1
    width = max(len("module"), *(len(path.name) for path in files))
    print(f"{'module':<{width}} {'code':>6} {'nonblank':>9}")
    total_code = total_nonblank = 0
    for path in files:
        code, nonblank = measure(path)
        total_code += code
        total_nonblank += nonblank
        print(f"{path.name:<{width}} {code:>6} {nonblank:>9}")
    print(f"{'total':<{width}} {total_code:>6} {total_nonblank:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
