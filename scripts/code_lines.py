"""Code lines of every Python module of one or two directories.

A code line is a line that holds a token of code: docstrings (the first
statement of a module, class or function, when it is a string), comments
and blank lines do not count; a line that goes on a statement or a string
literal does.  Given one directory, prints each module's count and the
total; given two, prints each module's count in both, the difference
(second minus first) and the total of each column::

    python scripts/code_lines.py src/coalattn
    python scripts/code_lines.py BASE/src/coalattn src/coalattn

Modules are the ``*.py`` files under each directory, named by their path
relative to it; a module missing on one side counts 0 there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module *source*."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _counts(directory: Path) -> dict[str, int]:
    return {
        path.relative_to(directory).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = [_counts(Path(directory)) for directory in argv]
    modules = sorted(set().union(*sides))
    if len(sides) == 1:
        (counts,) = sides
        print(f"{'lines':>7}  module")
        for module in modules:
            print(f"{counts[module]:7d}  {module}")
        print(f"{sum(counts.values()):7d}  total")
        return 0
    base, head = sides
    print(f"{'base':>7} {'head':>7} {'diff':>7}  module")
    for module in modules + ["total"]:
        before = sum(base.values()) if module == "total" else base.get(module, 0)
        after = sum(head.values()) if module == "total" else head.get(module, 0)
        print(f"{before:7d} {after:7d} {after - before:+7d}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
