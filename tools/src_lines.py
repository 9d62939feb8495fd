"""Print the size of ``src/``: physical and code-only lines per module.

    python3 tools/src_lines.py

One row per ``.py`` file under the checkout's ``src/`` gives its
physical lines, the count ``reachbench/run.py`` reports as
``src_lines``, and its code-only lines; the last row gives the totals.
Code-only lines leave out blank lines, comment-only lines (found with
``tokenize``) and the lines of module, class and function docstrings
(found with ``ast``).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that never make a line hold code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """How many lines of the source ``text`` hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def count(root):
    """(module, physical, code-only) for each ``.py`` file under root/src."""
    src = Path(root) / "src"
    rows = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        rows.append((path.relative_to(src).as_posix(), len(text.splitlines()), code_lines(text)))
    return rows


def main():
    rows = count(Path(__file__).resolve().parent.parent)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':{width}s} {'physical':>8s} {'code':>6s}")
    for name, physical, code in rows:
        print(f"{name:{width}s} {physical:8d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
