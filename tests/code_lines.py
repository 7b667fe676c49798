"""Count the code lines of ``src/morozov``, per module and in total.

A code line holds at least one token that is not a comment, a blank or a
docstring: the string that opens a module, class or function body. A
token that spans lines, such as a multi-line expression string, counts
each line it spans. Run from the repository root:

    python tests/code_lines.py [directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "morozov"

_BLANK = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """The code lines of the Python file at ``path``."""
    source = Path(path).read_text()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _BLANK or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    counts = {p.name: count(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
