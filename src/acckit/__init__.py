"""Exact workbench for pseudoline kaleidoscope wedges and alpha-curve
incidence structures.

Names resolve on first access (PEP 562): `import acckit` loads no
submodule, and `acckit.expand` or `acckit.wedge` loads only the module that
holds it, so a CLI command loads only the modules it runs."""

import importlib

__version__ = "0.1.0"

# Each public name's home module.
_HOME = {
    name: module
    for module, names in {
        "audits": (
            "DichotomyReport DiracAuditReport DyadicWindowReport TkBoundEntry "
            "TkBoundsReport audit_dirac audit_tk_bounds dichotomy_report dyadic_profile"
        ),
        "family": "family_wedge gen_near_pencil gen_pencil gen_simple_cyclic",
        "formats": "ParseError parse_structure parse_wedge serialize_structure serialize_wedge",
        "limits": "SizeLimitExceeded",
        "plane": "DuplicateLineId NotPrime ProjectivePlane pg2 sample_lines splitmix64 structure_from_lines",
        "render": "render_arrangement render_wedge",
        "structure": (
            "Disconnected DuplicateVertex ExpansionError IncidenceStructure InvalidStructureError "
            "PairMultiplicity SmallVertex Stats UnusedCurve ValidationReport compute_stats validate"
        ),
        "wedge": (
            "Apex BeamCopy BeamSpec Bounce BounceEvent Crossing ExpandedArrangement Ideal LineAtInfinity "
            "Mirror NonClosingBeam SelfCrossingBeam ValidationFailed WedgeSpec expand"
        ),
    }.items()
    for name in names.split()
}
_MODULES = frozenset(_HOME.values()) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        # Importing a submodule binds it in this module's globals.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
