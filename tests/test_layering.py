"""Layering lint: no module of the package imports or reads another
module's underscore name, and none holds an assert statement."""

import ast
from pathlib import Path

import acckit

PACKAGE = Path(acckit.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Underscore names a module takes from its sibling modules, as
    'module.name' strings, in source order."""
    tree = ast.parse(source)
    siblings: set[str] = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("acckit")):
            for alias in node.names:
                if node.module in (None, "acckit"):
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, f"{node.module or '.'}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("acckit."):
                    if alias.asname:
                        siblings.add(alias.asname)
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [name for _, name in sorted(found)]


def test_lint_catches_private_imports_and_reads():
    source = (
        "from . import formats\n"
        "from .wedge import WedgeSpec, _Expansion\n"
        "def f(text):\n"
        "    return formats._significant_lines(text), formats.parse_wedge(text)\n"
    )
    assert private_uses(source) == ["wedge._Expansion", "formats._significant_lines"]
    assert private_uses("from .cli import main\nfrom . import __version__\n") == []


def test_no_module_uses_another_modules_private_names():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = private_uses(path.read_text(encoding="utf-8"))
        if uses:
            offenders[path.name] = uses
    assert offenders == {}


def test_no_assert_statements_in_package():
    """Checks in the package raise real exceptions: an assert vanishes under
    python -O and ends in a traceback rather than an error line."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
