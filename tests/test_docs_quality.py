"""Documentation hygiene: docstrings, and docs that match the registry.

Beyond the docstring sweep, this module pins the documentation to the
diagnostic-code registry: ``docs/diagnostics.md`` is generated from
``DIAGNOSTIC_CODES`` (stale pages fail), and the README's hand-written
code table must name every registered code — including the SPEC140
renderer-drift and SPEC141 ladder-subsumption checks — and no others.
It also pins the docs to the code: every dotted ``repro.…`` path the
prose names in backticks must still import or resolve.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


def test_package_has_modules():
    assert len(MODULES) > 20


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    mod = importlib.import_module(module_name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for name in exported:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home
            assert obj.__doc__ and obj.__doc__.strip(), f"{module_name}.{name}"
            if inspect.isclass(obj):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_") or meth.__module__ != module_name:
                        continue
                    assert meth.__doc__, f"{module_name}.{name}.{meth_name}"


# ----------------------------------------------------------------------
# Docs ↔ diagnostic-registry consistency
# ----------------------------------------------------------------------
def _registry():
    from repro.analysis.diagnostics import DIAGNOSTIC_CODES

    return DIAGNOSTIC_CODES


def test_generated_diagnostics_page_is_current():
    # docs/diagnostics.md is derived from the registry by
    # scripts/gen_diagnostics_docs.py; a code added without regenerating
    # the page must fail here, not drift silently.
    script = REPO / "scripts" / "gen_diagnostics_docs.py"
    spec = importlib.util.spec_from_file_location("gen_diagnostics_docs", script)
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_diagnostics_docs"] = module
    try:
        spec.loader.exec_module(module)
        expected = module.render_page()
    finally:
        sys.modules.pop("gen_diagnostics_docs", None)
    page = REPO / "docs" / "diagnostics.md"
    assert page.exists(), "docs/diagnostics.md missing; run gen_diagnostics_docs.py"
    assert page.read_text() == expected, (
        "docs/diagnostics.md is stale; regenerate with "
        "PYTHONPATH=src python scripts/gen_diagnostics_docs.py"
    )


def test_readme_code_table_matches_registry():
    # The README table is hand-written (it adds severities and footnotes)
    # but must cover exactly the registered codes.
    readme = (REPO / "README.md").read_text()
    in_table = set(re.findall(r"^\| (SPEC\d{3}) \|", readme, flags=re.MULTILINE))
    assert in_table == set(_registry()), (
        f"README table out of sync with DIAGNOSTIC_CODES: "
        f"missing {sorted(set(_registry()) - in_table)}, "
        f"stale {sorted(in_table - set(_registry()))}"
    )


def test_new_generator_guards_are_registered_and_documented():
    registry = _registry()
    assert "SPEC140" in registry and "SPEC141" in registry
    page = (REPO / "docs" / "diagnostics.md").read_text()
    for code in ("SPEC140", "SPEC141"):
        assert code in page


# ----------------------------------------------------------------------
# Docs ↔ code: named modules and attributes exist
# ----------------------------------------------------------------------
DOC_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / "examples" / "specs" / "README.md",
]

#: A dotted ``repro.`` path inside a backticked span; a ``{a,b}`` group
#: stands for one path per alternative.
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.(?:\w+|\{[\w,]+\}))+")


def _expand(path):
    group = re.search(r"\{([\w,]+)\}", path)
    if group is None:
        return [path]
    head, tail = path[: group.start()], path[group.end() :]
    return [p for alt in group.group(1).split(",") for p in _expand(head + alt + tail)]


def _documented_paths():
    for doc in DOC_FILES:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
            for match in _DOTTED.finditer(span):
                for path in _expand(match.group(0)):
                    yield doc.relative_to(REPO), path


def _resolves(path):
    """True when ``path`` is a module, or an attribute chain on one."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if not f"{name}.".startswith(f"{exc.name}."):
                raise  # a dependency is missing, not the named module
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_repro_paths_resolve():
    # A deleted or renamed module that the prose still names fails here.
    paths = list(_documented_paths())
    assert len(paths) > 40, "the path scan found suspiciously few names"
    stale = sorted({f"{doc}: {path}" for doc, path in paths if not _resolves(path)})
    assert not stale, "docs name modules or attributes that do not exist:\n" + "\n".join(stale)
