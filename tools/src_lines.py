"""Print the line split of the package source: code, docstring, comment, blank.

    python3 tools/src_lines.py [DIR]

DIR defaults to the repository's src/.  A docstring line lies within the
docstring of a module, class or function; a comment line holds a comment
and nothing else; a blank line holds only whitespace; every other line is
code.  Standard library only.
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(path: Path) -> dict:
    """Line counts of one Python file by kind."""
    text = path.read_text()
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    with path.open() as fh:
        comments = {tok.start[0] for tok in tokenize.generate_tokens(fh.readline)
                    if tok.type == tokenize.COMMENT
                    and not lines[tok.start[0] - 1][:tok.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        counts["docstring" if number in docs else "comment" if number in comments
               else "code" if line.strip() else "blank"] += 1
    return counts


def main(argv: list) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    files = [split(path) for path in sorted(root.rglob("*.py"))]
    total = {kind: sum(f[kind] for f in files) for kind in KINDS}
    print(" ".join(f"{kind} {count}" for kind, count in total.items()),
          f"total {sum(total.values())}")


if __name__ == "__main__":
    main(sys.argv[1:])
