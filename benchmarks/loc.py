"""Code-line counter: how big is ``src/repro`` once prose is set aside?

A *code line* is a physical line holding at least one token that is not
a comment — blank lines, comment-only lines and docstrings (the leading
string statement of a module, class or function) do not count.  ROADMAP
item 9 states its subtraction target in this unit, because raw ``wc -l``
moves with docstrings as much as with code.

    python benchmarks/loc.py                    # per package + total, src/repro
    python benchmarks/loc.py src/repro/model/serialize.py src/repro/pipeline/codecs.py
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_PROSE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _PROSE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count(paths: list[Path]) -> dict[str, int]:
    """Code lines per bucket: a file counts under its own name, a
    directory under each of its immediate children (packages)."""
    totals: dict[str, int] = {}
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            bucket = file.relative_to(path).parts[0] if path.is_dir() else str(path)
            totals[bucket] = totals.get(bucket, 0) + code_lines(file.read_text())
    return totals


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[REPO_ROOT / "src" / "repro"],
        help="files (one bucket each) or directories (one bucket per child); "
        "default: src/repro",
    )
    paths = parser.parse_args(argv).paths
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
    totals = count(paths)
    width = max(map(len, totals))
    for bucket, lines in sorted(totals.items()):
        print(f"{bucket:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(totals.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
