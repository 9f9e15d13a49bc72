"""Style rules the code holds, checked with the standard library alone: no
line is over 100 characters, and no package module imports a name it never
uses (such as a helper import left behind when its one caller moved)."""

import ast
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
