"""Layering lint: no module of the package imports or reads another
module's underscore name, and none holds an assert statement; the package
exports exactly its allowlist, and only expansion and parsing build
structures without the constructor's checks, and only limits.py reads
the environment."""

import ast
import importlib
import os
import subprocess
import sys
import types
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


# What the CLI, the README and the paper's claims use, and nothing else.
PUBLIC_NAMES = {
    "Apex", "BeamCopy", "BeamSpec", "Bounce", "BounceEvent", "Crossing", "DichotomyReport",
    "DiracAuditReport", "Disconnected", "DuplicateLineId", "DuplicateVertex", "DyadicProfileParams",
    "DyadicWindowReport", "ExpandedArrangement", "ExpansionError", "Ideal", "IncidenceStructure",
    "InvalidStructureError", "LineAtInfinity", "Mirror", "NonClosingBeam", "NotPrime",
    "PairIdentityReport", "PairMultiplicity", "ParseError", "ProjectivePlane",
    "SelfCrossingBeam", "SizeLimitExceeded", "SmallVertex", "Stats", "TkBoundEntry", "TkBoundsReport",
    "UnusedCurve", "ValidationFailed", "ValidationReport", "WedgeSpec", "audit_dirac",
    "audit_pair_identity", "audit_tk_bounds", "compute_stats", "dichotomy_report", "dyadic_profile",
    "expand", "family_wedge", "gen_near_pencil", "gen_pencil", "gen_simple_cyclic", "parse_structure",
    "parse_wedge", "pg2", "render_arrangement", "render_wedge", "sample_lines", "serialize_structure",
    "serialize_wedge", "splitmix64", "structure_from_lines", "validate",
}
# Names that only tests used; their references live in the tests now.
REMOVED_NAMES = (
    "wedge_paths", "family_point_order", "per_class_max_degrees", "reference_family_counts",
    "from_exponents", "tk_total_weighted", "curve_degrees", "vertex_degrees", "incident", "canonical",
    "RenderOptions", "budget_from_env",
)


def test_public_names_are_the_allowlist():
    # The package binds a name on first access, so resolve every one first.
    for name in dir(acckit):
        getattr(acckit, name)
    public = {
        name
        for name, value in vars(acckit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
    star: dict = {}
    exec("from acckit import *", star)
    assert star.keys() - {"__builtins__"} == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(acckit, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    modules = [importlib.import_module(f"acckit.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
    holders = modules + [getattr(acckit, name) for name in sorted(PUBLIC_NAMES) if isinstance(getattr(acckit, name), type)]
    left = [
        (holder.__name__, name)
        for holder in holders
        for name in REMOVED_NAMES
        if hasattr(holder, name) or name in getattr(holder, "__dataclass_fields__", {})
    ]
    assert left == []


def test_bare_import_resolves_submodules_and_names():
    """After a bare `import acckit`, which loads no submodule, a submodule
    or a name resolves on first access; ExpansionError, which lives in
    structure.py, is the same class through every path."""
    probe = (
        "import acckit\n"
        "print(acckit.wedge.__name__, acckit.ExpansionError is acckit.wedge.ExpansionError is acckit.structure.ExpansionError)\n"
        "print(sorted(error.__name__ for error in acckit.ExpansionError.__subclasses__()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout == (
        "acckit.wedge True\n['NonClosingBeam', 'SelfCrossingBeam', 'ValidationFailed']\n"
    )


def test_only_expansion_and_parsing_build_trusted_structures():
    """IncidenceStructure.trusted skips every record check, so only code
    whose records are checked or rising by construction may call it."""
    callers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "trusted"
    ]
    assert callers == ["formats.py", "wedge.py"]


def environment_reads(source: str) -> list[int]:
    """Lines that read os.environ or os.getenv, as an attribute or by a
    from-import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(node.lineno for alias in node.names if alias.name in ("environ", "getenv"))
    return sorted(found)


def test_lint_catches_environment_reads():
    source = "import os\nfrom os import getenv\nx = os.environ.get('A')\ny = os.getenv('B')\nz = os.path.sep\n"
    assert environment_reads(source) == [2, 3, 4]


def test_only_limits_reads_the_environment():
    """Budgets are the package's only settings from the environment, and
    limits.py reads every one of them."""
    readers = [path.name for path in sorted(PACKAGE.glob("*.py")) if environment_reads(path.read_text(encoding="utf-8"))]
    assert readers == ["limits.py"]
