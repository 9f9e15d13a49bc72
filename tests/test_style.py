"""Style rules the code holds, checked with the standard library alone: no
line is over 100 characters, and no package module imports a name it never
uses (such as a helper import left behind when its one caller moved).

`code_lines` counts a module's code lines and docstring lines, the measure
a refactor reports its size change in, and `defaulted_parameters` its
parameters that have a default.  Run this file as a script to print all
three for each `src/symforge` module, and the totals:

    python tests/test_style.py
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "symforge").glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_no_line_is_over_100_characters(path):
    lines = path.read_text().splitlines()
    long = [i for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert not long, f"{path.name}: lines {long} are over {MAX_LINE} characters"


def _imported_names(tree):
    """{name bound by an import: its line}, `__future__` imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# Tokens that make no line a code line.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of a module's source.  A docstring
    line is a line of the string that is the first statement of the
    module, a class or a function; a code line is any other line that
    holds a token.  Comments and blank lines are neither."""
    defines = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, defines) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs), len(docs)


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines():
    source = '''"""A module
docstring."""

# a comment
X = """not a
docstring"""


class C:
    """One line."""

    def f(self):  # a comment after code
        """Two
        lines."""
        return [
            1,
        ]
'''
    assert code_lines(source) == (7, 5)


def defaulted_parameters(source: str) -> int:
    """The parameters with a default, positional and keyword-only, over
    every `def` of a module's source, methods and nested defs included."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, defines)
    )


def test_defaulted_parameters_counts_every_def_and_no_lambda():
    source = """
def f(a, b=1, *args, c, d=2, **kwargs):
    def nested(x=0, /, y=1):
        return lambda z=3: z


class C:
    field: int = 4

    async def method(self, e=None, *, g=5):
        pass
"""
    assert defaulted_parameters(source) == 6


if __name__ == "__main__":
    totals = [0, 0, 0]
    print(f"{'module':<16}{'code':>6}{'docs':>6}{'defaults':>10}")
    for path in PACKAGE:
        counts = (*code_lines(path.read_text()), defaulted_parameters(path.read_text()))
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>6}{counts[1]:>6}{counts[2]:>10}")
    print(f"{'total':<16}{totals[0]:>6}{totals[1]:>6}{totals[2]:>10}")
