"""Source-level rules for the library."""

import ast
import re
from pathlib import Path

import pytest

import uavtc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "uavtc").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a runtime check must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_package_version_is_the_project_version():
    # summary.json records uavtc.__version__; tomllib is not in Python 3.10
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)",
                        (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"$', project.group(1), re.M)
    assert version is not None, "pyproject.toml has no [project].version"
    assert uavtc.__version__ == version.group(1)
