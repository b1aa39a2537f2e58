"""Every name the package exports is used by the package, its scripts or its benchmark.

A name only the tests call is surface without a user; it belongs in the tests.
And no package module imports another's underscore name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reconlab"

ALLOWED_UNUSED: set = set()


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def referenced_names() -> set:
    """Identifiers read, imported or reached as attributes outside the re-exports.

    Definitions (`def f`, `class C`) are not references, so a name counts only
    when some other line of the package, a script or the benchmark uses it.
    """
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("scripts", "bench"):
        sources += sorted((ROOT / folder).glob("*.py"))
    seen = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


def test_every_export_has_a_caller():
    unused = exported_names() - referenced_names() - ALLOWED_UNUSED
    assert not unused, f"exported but used only by tests: {sorted(unused)}"


def test_allowlist_is_current():
    assert ALLOWED_UNUSED <= exported_names()
    assert not ALLOWED_UNUSED & referenced_names()


def underscore_imports() -> list:
    """(module, name) for each underscore name a package module imports from another."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_") and alias.name != "__version__"]
    return found


def test_no_module_imports_another_modules_private_name():
    assert not underscore_imports()
