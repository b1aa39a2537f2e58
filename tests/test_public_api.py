"""Every name the package exports is used by the package, its scripts or its benchmark.

A name only the tests call is surface without a user; it belongs in the tests.
Likewise every defaulted parameter of an exported callable is passed by some
call there: a value nothing sets is an option without a user. And no package
module imports another's underscore name.
"""

import ast
import enum
import inspect
from pathlib import Path

import reconlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reconlab"

ALLOWED_UNUSED: set = set()
ALLOWED_UNSET: set = set()  # "callable.parameter" entries


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def caller_trees() -> list:
    """The parsed package modules (but for the re-exports), scripts and benchmark."""
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    for folder in ("scripts", "bench"):
        sources += sorted((ROOT / folder).glob("*.py"))
    return [ast.parse(path.read_text()) for path in sources]


def referenced_names() -> set:
    """Identifiers read, imported or reached as attributes outside the re-exports.

    Definitions (`def f`, `class C`) are not references, so a name counts only
    when some other line of the package, a script or the benchmark uses it.
    """
    seen = set()
    for tree in caller_trees():
        for node in ast.walk(tree):
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


def defaulted_parameters() -> dict:
    """{"callable.parameter": (callee name, parameter, position or None)} for each defaulted one.

    The callables are the exported functions and, of each exported class that
    is neither an enum nor an exception, its constructor, public methods and
    classmethods. The position counts the arguments a call writes: an instance
    method's `self` is not one of them, a keyword-only parameter has none.
    """
    found = {}
    for name in sorted(exported_names()):
        obj = getattr(reconlab, name)
        if inspect.isfunction(obj):
            targets = [(name, name, obj, False)]
        elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
            targets = [(name, name, obj, False)]
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    targets.append((f"{name}.{attr}", attr, getattr(obj, attr), False))
                elif inspect.isfunction(raw):
                    targets.append((f"{name}.{attr}", attr, raw, True))
        else:
            continue
        for label, callee, fn, bound in targets:
            params = list(inspect.signature(fn).parameters.values())[1 if bound else 0:]
            for pos, p in enumerate(params):
                if p.default is not inspect.Parameter.empty:
                    positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                    found[f"{label}.{p.name}"] = (callee, p.name, pos if positional else None)
    return found


def passed_arguments() -> dict:
    """{callee name: [(positional count, keyword names, splats)]} over every call.

    The callee name is `f` for `f(...)`, `X.f(...)` and `LIB.f(...)` alike.
    """
    calls = {}
    for tree in caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            splats = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(callee, []).append(
                (len(node.args), {k.arg for k in node.keywords}, splats))
    return calls


def unset_parameters() -> set:
    calls = passed_arguments()
    return {label for label, (callee, param, pos) in defaulted_parameters().items()
            if not any(splats or param in keywords or (pos is not None and pos < npos)
                       for npos, keywords, splats in calls.get(callee, ()))}


def test_every_defaulted_parameter_has_a_caller():
    unset = unset_parameters() - ALLOWED_UNSET
    assert not unset, f"defaulted but set only by tests: {sorted(unset)}"


def test_unset_allowlist_is_current():
    assert ALLOWED_UNSET <= set(defaulted_parameters())
    assert ALLOWED_UNSET <= unset_parameters()


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
