"""Print the lines and code lines of each module under src/movkit.

Code lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings. Run from anywhere:

    python3 tools/src_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "movkit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    text = path.read_text()
    rows = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1 for number, row in enumerate(rows, start=1)
        if number not in skip and row.strip() and not row.strip().startswith("#")
    )
    return len(rows), code


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
