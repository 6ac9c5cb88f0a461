"""Count the size of each module of a Python package.

    python tools/code_lines.py src/curvecount

For each module of the package it prints three numbers:

* physical lines;
* code lines: lines that hold a token outside comments and docstrings;
* statements: ast.stmt nodes.

Then it prints their sums over the modules a `count` command loads (every
module but __main__, bookkeeping and suites) and over the whole package.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# the modules `curvecount count` does not import
NOT_LOADED_BY_COUNT = {"__main__", "bookkeeping", "suites"}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def measure(source: str) -> tuple:
    """(physical lines, code lines, statements) of a module's source."""
    tree = ast.parse(source)
    docstrings = _docstring_starts(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(source.splitlines()), len(code), statements


def _total(sizes) -> tuple:
    return tuple(sum(column) for column in zip(*sizes))


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 1
    sizes = {path.stem: measure(path.read_text(encoding="utf-8")) for path in sorted(Path(argv[0]).glob("*.py"))}
    loaded = [size for name, size in sizes.items() if name not in NOT_LOADED_BY_COUNT]
    rows = [*sizes.items(), ("(count loads)", _total(loaded)), ("(package)", _total(sizes.values()))]
    print(f"{'module':<16}{'physical':>10}{'code':>8}{'stmts':>8}")
    for name, (physical, code, statements) in rows:
        print(f"{name:<16}{physical:>10}{code:>8}{statements:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
