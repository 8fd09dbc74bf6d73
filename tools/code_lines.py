"""Count the code lines of each Python module under a source tree.

A code line holds at least one token that is not a comment and not part
of a docstring (the leading string of a module, class or function).
Blank lines, comment lines and docstring lines do not count.

Usage, from the repository root:

    python3 tools/code_lines.py [ROOT]

ROOT defaults to ``src``.  Prints one line per module and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code of their own.
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the module at `path`."""
    with tokenize.open(path) as fh:
        source = fh.read()
    lines: set[int] = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
