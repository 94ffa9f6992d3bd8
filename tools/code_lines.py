"""Count the code lines of the radarnet package, module by module.

A code line is a physical line that holds some token of a statement:
blank lines, comment-only lines and the lines of docstrings (a string
literal that is the first statement of a module, class or function)
are not counted.  Stdlib only.

    python3 tools/code_lines.py
    python3 tools/code_lines.py --rev REV

With --rev the files are read from that git revision's src/ (extracted
with `git archive` by `revision.py`) instead of the working tree.
Prints one "module count" line per .py file directly in the package,
largest first, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from contextlib import nullcontext
from pathlib import Path

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python `source`."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to read the package from")
    args = parser.parse_args(argv)
    with nullcontext(ROOT / "src") if args.rev is None else revision_src(args.rev) as src:
        counts = {path.stem: code_lines(path.read_text())
                  for path in (src / "radarnet").glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
