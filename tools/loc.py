"""Count logical lines of Python source: non-blank lines that are neither
comments nor docstrings.

Usage: python tools/loc.py PATH [PATH ...]

Prints the total over every *.py file under the given directories, plus each
given file; a missing path is an error. A line counts when at least one token
other than a comment, a newline or an indentation change lies on it; lines
covered by a module, class or function docstring do not count.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    """Logical lines of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    code -= _docstring_lines(ast.parse(source))
    return sum(1 for n in code if n <= len(text) and text[n - 1].strip())


def count(path) -> int:
    """Logical lines of the file at path, or of every *.py file under it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file or directory: {path}")
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(logical_lines(p.read_text(encoding="utf-8")) for p in files)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    try:
        print(sum(count(p) for p in sys.argv[1:]))
    except FileNotFoundError as exc:
        sys.exit(f"loc.py: {exc}")
