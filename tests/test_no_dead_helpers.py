"""Every public top-level def and class in gorlef has a caller in gorlef,
and no module but `__init__.py` imports a name it never references.

A name that only `__init__.py` re-exports, or only the tests call, is a
helper that no CLI command or verifier reaches; tests that need such a
routine as an independent reference keep it in tests/oracles.py.  The
three paper checks that the acceptance tests call are the exceptions.
"""

import ast
from pathlib import Path

import gorlef

PAPER_CHECKS = {"hilbert_formula_check", "hess_coefficient_criterion",
                "block_det_identity"}


def _public_definitions_and_references():
    defined, referenced = {}, set()
    for path in sorted(Path(gorlef.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_public_helper_has_a_caller():
    defined, referenced = _public_definitions_and_references()
    unreached = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in referenced and name not in PAPER_CHECKS)
    assert unreached == []


def test_the_exemptions_are_still_defined():
    defined, _ = _public_definitions_and_references()
    assert PAPER_CHECKS <= defined.keys()


def _unreferenced_imports(source: str):
    """Names a module imports but never references, __future__ aside."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(gorlef.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unreferenced_imports(path.read_text())
            if names:
                unused[path.name] = names
    assert unused == {}


def test_the_import_check_sees_an_unused_import():
    assert _unreferenced_imports(
        "from math import factorial, prod\nfactorial(3)\n") == ["prod"]
    assert _unreferenced_imports(
        "from __future__ import annotations\nimport os.path\nos.sep\n") == []
