"""Exact workbench for pseudoline kaleidoscope wedges and alpha-curve
incidence structures."""

from .structure import (
    Disconnected,
    DuplicateVertex,
    IncidenceStructure,
    InvalidStructureError,
    PairMultiplicity,
    SmallVertex,
    Stats,
    UnusedCurve,
    ValidationReport,
    compute_stats,
    validate,
)
from .wedge import (
    Apex,
    BeamCopy,
    BeamSpec,
    Bounce,
    BounceEvent,
    Crossing,
    ExpandedArrangement,
    ExpansionError,
    Ideal,
    LineAtInfinity,
    Mirror,
    NonClosingBeam,
    SelfCrossingBeam,
    ValidationFailed,
    WedgeSpec,
    expand,
)
from .family import family_wedge, gen_near_pencil, gen_pencil, gen_simple_cyclic
from .formats import (
    ParseError,
    parse_structure,
    parse_wedge,
    serialize_structure,
    serialize_wedge,
)
from .audits import (
    DichotomyReport,
    DiracAuditReport,
    DyadicProfileParams,
    DyadicWindowReport,
    PairIdentityReport,
    TkBoundEntry,
    TkBoundsReport,
    audit_dirac,
    audit_pair_identity,
    audit_tk_bounds,
    dichotomy_report,
    dyadic_profile,
)
from .limits import SizeLimitExceeded
from .plane import (
    DuplicateLineId,
    NotPrime,
    ProjectivePlane,
    pg2,
    sample_lines,
    splitmix64,
    structure_from_lines,
)
from .render import render_arrangement, render_wedge

__version__ = "0.1.0"
