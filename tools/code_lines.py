"""Count code lines and physical lines in each module of a package.

A code line is a non-blank line that holds some token other than a
comment and is not part of a docstring (the string that opens a module,
class or function body). Tokens come from ``tokenize``, docstrings from
``ast``; a string token that spans lines counts on every line it spans.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/branchtrace`` next to this script's
parent directory. Prints one line per module and a total.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = pathlib.Path(__file__).resolve().parent.parent / "src" / "branchtrace"
    parser.add_argument("package", nargs="?", type=pathlib.Path, default=default)
    args = parser.parse_args(argv)
    modules = sorted(args.package.glob("*.py"))
    if not modules:
        print(f"no modules under {args.package}", file=sys.stderr)
        return 2
    total_code = total_physical = 0
    print(f"{'module':<16} {'code':>6} {'physical':>9}")
    for path in modules:
        code, physical = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_physical += physical
        print(f"{path.name:<16} {code:>6} {physical:>9}")
    print(f"{'total':<16} {total_code:>6} {total_physical:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
