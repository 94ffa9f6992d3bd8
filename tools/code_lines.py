"""Count the code lines of the radarnet package, module by module.

A code line is a physical line that holds some token of a statement:
blank lines, comment-only lines and the lines of docstrings (a string
literal that is the first statement of a module, class or function)
are not counted.  Stdlib only.

    python3 tools/code_lines.py
    python3 tools/code_lines.py --rev REV

With --rev the files are read from that git revision instead of the
working tree.  Prints one "module count" line per module, largest
first, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/radarnet")

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


def _sources(rev: str | None) -> dict[str, str]:
    """Module name -> source of every .py file directly in PACKAGE."""
    if rev is None:
        return {path.stem: path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-tree", "--name-only", f"{rev}:{PACKAGE.as_posix()}"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return {
        Path(name).stem: subprocess.run(
            ["git", "-C", str(ROOT), "show", f"{rev}:{(PACKAGE / name).as_posix()}"],
            check=True, capture_output=True, text=True,
        ).stdout
        for name in sorted(names) if name.endswith(".py")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to read the package from")
    args = parser.parse_args(argv)
    counts = {name: code_lines(source) for name, source in _sources(args.rev).items()}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
