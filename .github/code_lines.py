"""Print the code-line count of each module of src/qamp and their total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (the first string statement of a module, class or function,
found with ``ast``) do not count, and a statement that spans several lines
counts each line that holds one of its tokens (found with ``tokenize``).

    python3 .github/code_lines.py [package directory]

The directory defaults to src/qamp beside this script; pass another
checkout's to compare two trees.  Prints one line per module and a total,
and always exits 0.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "qamp"
    package = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
