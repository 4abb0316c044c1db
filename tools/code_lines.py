"""Print the line counts of the package source, one line per module and
then the total: all lines, and the code lines, which are the lines that are
not blank, not only a comment, and not part of a docstring (a string that
is the first statement of a module, class or function).

    python tools/code_lines.py [directory]

The directory defaults to src/quasicartan beside this script's parent.
"""

import ast
import io
import pathlib
import sys
import tokenize


def not_code(source):
    """The numbers of the lines of source that are blank, only a comment,
    or within a docstring."""
    lines = source.splitlines()
    out = {i for i, line in enumerate(lines, 1) if not line.strip()}
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    out |= {t.start[0] for t in tokens if t.type == tokenize.COMMENT
            and not lines[t.start[0] - 1][:t.start[1]].strip()}
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body and \
                isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent
                        / "src" / "quasicartan")
    total = code = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n = len(source.splitlines())
        m = n - len(not_code(source))
        print(f"{path.name}: {n} lines, {m} code lines")
        total += n
        code += m
    print(f"{root.name}: {total} lines, {code} code lines")


if __name__ == "__main__":
    main(sys.argv)
