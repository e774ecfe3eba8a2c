"""The example scripts stay syntactically valid and import-clean.

Full runs train small models and take up to about 10 s each, so CI's
``test`` job runs every script end to end in a step of its own. Here we
compile each script and verify that everything it imports from the
library resolves.
"""

import ast
import importlib
import py_compile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_docstring_and_main_guard_or_script(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} needs a docstring"
