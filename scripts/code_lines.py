#!/usr/bin/env python3
"""Line and code-line counts of each module of `src/cbsc`, and their total,
then those of `tests/oracles.py`, where the test-only code that leaves
`src/cbsc` goes: a move out of the package shows in both counts.

Usage: code_lines.py [DIR]     (default: the `src/cbsc` next to this script)

A code line is a non-blank line that is neither comment-only nor part of
a docstring.  Docstrings are found on the AST: the first statement of a
module, class or function body when it is a string literal.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[0]) if argv else repo / "src" / "cbsc"
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")
    lines, code = count(repo / "tests" / "oracles.py")
    print(f"{'tests/oracles.py':<16}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
