"""Layering lint: no module of the package imports or reads another
module's underscore name, names an underscore name in a public
signature, imports a name it never reads, defines a private name the
package never reads, or holds an assert statement;
the package exports exactly its allowlist, only expansion and parsing
build structures without the constructor's checks, only the expansion
hands those a proven report, and only limits.py reads the environment."""

import ast
import importlib
import inspect
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


def private_annotations(source: str) -> list[str]:
    """Underscore names in the parameter and return annotations of a
    module's public functions, the public methods of its public classes
    and their __init__, string annotations included, as 'function: name'
    strings in source order."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    signatures = [(node.name, node) for node in tree.body if isinstance(node, functions)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not _private(cls.name):
            signatures += [(f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, functions)]
    found = []
    for name, function in signatures:
        method = name.rpartition(".")[2]
        if method.startswith("_") and method != "__init__":
            continue
        arguments = function.args
        every = [*arguments.posonlyargs, *arguments.args, arguments.vararg, *arguments.kwonlyargs, arguments.kwarg]
        annotations = [arg.annotation for arg in every if arg is not None] + [function.returns]
        for annotation in filter(None, annotations):
            roots = [annotation] + [
                ast.parse(node.value, mode="eval")
                for node in ast.walk(annotation)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            ]
            for root in roots:
                for node in ast.walk(root):
                    used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
                    if _private(used):
                        found.append((annotation.lineno, f"{name}: {used}"))
    return [entry for _, entry in sorted(found, key=lambda item: item[0])]


def test_lint_catches_private_names_in_public_signatures():
    source = (
        "class ExpandedArrangement:\n"
        "    def __init__(self, structure: IncidenceStructure, expansion: _Expansion, ids: list[int]):\n"
        "        pass\n"
        "    def read(self, rows: 'list[_Row]') -> formats._Cache: ...\n"
        "    def _helper(self, builder: _Expansion): ...\n"
        "    def __eq__(self, other: _Expansion): ...\n"
        "class _Expansion:\n"
        "    def __init__(self, spec: _Spec) -> None: ...\n"
        "    def arrangement(self, spec: _Spec): ...\n"
        "def expand(*specs: _Spec, **options: int) -> 'ExpandedArrangement': ...\n"
        "def _expand(spec: _Spec) -> _Expansion: ...\n"
    )
    assert private_annotations(source) == [
        "ExpandedArrangement.__init__: _Expansion",
        "ExpandedArrangement.read: _Row",
        "ExpandedArrangement.read: _Cache",
        "expand: _Spec",
    ]
    assert private_annotations("def f(a: int, *, b: 'list[str]' = None) -> __future__.annotations: ...\n") == []


def test_no_public_signature_names_a_private_name():
    """Callers outside a module can build and pass only what its public
    signatures name."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = private_annotations(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def unused_imports(source: str) -> list[str]:
    """Names a module binds by an import but never reads, in source order.
    A name read only in an annotation is read, also inside a string
    annotation; a __future__ import binds nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    annotations = [
        annotation
        for node in ast.walk(tree)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
    ]
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in annotations
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    read = {
        node.id
        for root in [tree, *quoted]
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for _, name in sorted(bound) if name not in read]


def test_lint_catches_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import xml.etree as tree\n"
        "from typing import Dict, List\n"
        "from .wedge import WedgeSpec as Spec, expand\n"
        "def f(spec: 'Spec', v: List[int]) -> Dict:\n"
        "    return expand(spec)\n"
    )
    assert unused_imports(source) == ["os", "tree"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_imports_a_name_it_never_reads():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            offenders[path.name] = unused
    assert offenders == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, methods, classes and module assignments that no
    source reads, as 'file: name' strings in file and source order.  A
    read is a loaded name, an attribute of that name or a from-import of
    it, in any of the sources; a def, class or assignment is not a read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(item.lineno, item.name) for item in node.body if isinstance(item, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(node.lineno, target.id) for target in targets if isinstance(target, ast.Name)]
        unread = [defined_name for _, defined_name in sorted(defined) if _private(defined_name) and defined_name not in read]
        found += [f"{name}: {unread_name}" for unread_name in unread]
    return found


def test_lint_catches_unread_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_used: int = 1\n"
            "def _helper(x):\n"
            "    return x + _used\n"
            "class _Box:\n"
            "    def _size(self): return 1\n"
            "    def _spare(self): ...\n"
            "    def __len__(self): return self._size()\n"
            "def public(): return _helper(_Box())\n"
            "def _column(self): ...\n"
        ),
        "b.py": "from .a import _LIMIT as limit\n",
    }
    assert unread_private_names(sources) == ["a.py: _spare", "a.py: _column"]
    assert unread_private_names({"c.py": "def _f(): ...\nclass C:\n    def _g(self): ...\n"}) == ["c.py: _f", "c.py: _g"]


def test_no_private_name_goes_unread():
    """Private code that nothing in the package reads is dead, also when a
    test still calls it."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


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
    "DiracAuditReport", "Disconnected", "DuplicateLineId", "DuplicateVertex", "DyadicWindowReport",
    "ExpandedArrangement", "ExpansionError", "Ideal", "IncidenceStructure",
    "InvalidStructureError", "LineAtInfinity", "Mirror", "NonClosingBeam", "NotPrime",
    "PairMultiplicity", "ParseError", "ProjectivePlane",
    "SelfCrossingBeam", "SizeLimitExceeded", "SmallVertex", "Stats", "TkBoundEntry", "TkBoundsReport",
    "UnusedCurve", "ValidationFailed", "ValidationReport", "WedgeSpec", "audit_dirac",
    "audit_tk_bounds", "compute_stats", "dichotomy_report", "dyadic_profile",
    "expand", "family_wedge", "gen_near_pencil", "gen_pencil", "gen_simple_cyclic", "parse_structure",
    "parse_wedge", "pg2", "render_arrangement", "render_wedge", "sample_lines", "serialize_structure",
    "serialize_wedge", "splitmix64", "structure_from_lines", "validate",
}
# Names that are gone: the tests hold the references of those only tests
# used, and `audit pairs` checks the pair identity from Stats itself.
REMOVED_NAMES = (
    "wedge_paths", "family_point_order", "per_class_max_degrees", "reference_family_counts",
    "from_exponents", "tk_total_weighted", "curve_degrees", "vertex_degrees", "incident", "canonical",
    "RenderOptions", "budget_from_env", "audit_pair_identity", "PairIdentityReport", "DyadicProfileParams",
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


def trusted_calls() -> list[tuple[str, ast.Call]]:
    """(module file name, call) for every call of an attribute named
    trusted in the package, in file order."""
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "trusted"
    ]


def test_only_expansion_and_parsing_build_trusted_structures():
    """IncidenceStructure.trusted skips every record check, so only code
    whose records are checked or rising by construction may call it."""
    assert [name for name, _ in trusted_calls()] == ["formats.py", "wedge.py"]


def test_only_expansion_hands_trusted_a_report():
    """A structure gets a report without validate's full pass in one place
    only: trusted handed the report the expansion proved on its rotation
    quotient.  validate itself takes nothing but the structure."""
    handing = [
        name
        for name, call in trusted_calls()
        if len(call.args) > 3 or any(keyword.arg in (None, "report") for keyword in call.keywords)
    ]
    assert handing == ["wedge.py"]
    assert list(inspect.signature(acckit.IncidenceStructure.trusted).parameters) == ["alpha", "n", "vertices", "report"]
    assert list(inspect.signature(acckit.validate).parameters) == ["s"]


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
