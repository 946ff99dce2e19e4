"""Source-level rules for the library."""

import ast
import importlib.util
import re
import sys
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


def test_benchmark_spans_patch_only_names_the_library_has(monkeypatch):
    # perfbench/spans.py wraps library names in place for a traced run; a name
    # it patches that the library no longer binds makes install raise
    # AttributeError, and undo must put every original back
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    import uavtc.cli  # the package does not import its command-line module

    modules = (uavtc.analytic, uavtc.cli, uavtc.mobility, uavtc.model, uavtc.simulate)
    before = [dict(vars(module)) for module in modules]
    undo = spans.install(spans.Recorder(), uavtc)
    try:
        during = [dict(vars(module)) for module in modules]
    finally:
        undo()
    patched = {(module.__name__, name) for module, old, new in zip(modules, before, during)
               for name in new if new[name] is not old.get(name)}
    assert ("uavtc.analytic", "integrate_jet") in patched
    assert [set(new) for new in during] == [set(old) for old in before]
    for module, old in zip(modules, before):
        assert set(vars(module)) == set(old)
        assert not [name for name, value in old.items() if vars(module)[name] is not value]
