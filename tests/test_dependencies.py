"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules that the package's sources import."""
import ast
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltacasimir"


def _imported_top_level_modules():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for req in project["dependencies"]:
        for sep in "<>=!~;[ ":
            req = req.split(sep, 1)[0]
        names.add(req.strip().lower())
    return names


def test_every_third_party_import_is_declared_and_nothing_more():
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) \
        - {"__future__", "deltacasimir"}
    assert third_party == _declared_dependencies() == {"numpy"}
