"""The counterexample family of wedges plus small fixture generators.

family_wedge(j) builds the wedge of dihedral order 6j+2 whose expansion has
18j+7 pseudolines with no pseudoline on more than 8j+2 vertices.  Two beams,
red and blue, bounce 3j+1 times each; every third blue bounce lands on a red
bounce point (blue bounce 3i coincides with red bounce i for i <= j).

Each bounce point's rank (counted from infinity, rank 1 farthest from the
apex) has a closed form.  With t = 3j+1 and odd bounces on the top edge:

- blue bounce i has rank ceil(i/2) = (i+1) // 2;
- red bounce i <= j sits on blue bounce 3i's point, rank ceil(3i/2);
- red bounce i > j lies beyond every blue point on its edge, in order:
  rank (t + i%2) // 2 + (i-j-1) // 2 + 1.

For j = 1 this is the unique order, among all interleavings consistent with
the beam structure, whose expansion is a valid alpha = 1 arrangement of 25
curves with maximum curve degree 10; for j = 2 the two new blue points
(5 and 7) have a unique placement that survives expansion.  The tests
re-derive both by exhaustive search.

The fixture generators size their output by closed form first (n curves
for the pencils, C(n, 2) vertices for the simple arrangement) and refuse a
size over the budget with SizeLimitExceeded (see limits.check_size).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .limits import check_size
from .structure import IncidenceStructure

if TYPE_CHECKING:
    from .wedge import WedgeSpec


def family_wedge(j: int) -> WedgeSpec:
    """Wedge of dihedral order 6j+2 generating the 18j+7 curve arrangement.

    Its two beams bounce 6j+2 = m times in all, so its expansion has size
    m + 2m^2; a j whose expansion the budget refuses is refused here, with
    SizeLimitExceeded, before any event is built.
    """
    # wedge.py is loaded here, not at import, so that the fixture
    # generators and the .acc commands run without it.
    from .wedge import BOTTOM, TOP, BeamSpec, BounceEvent, WedgeSpec, check_expansion_size

    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    check_expansion_size(6 * j + 2, 6 * j + 2)
    t = 3 * j + 1
    red = [(3 * i + 1) // 2 if i <= j else (t + i % 2) // 2 + (i - j - 1) // 2 + 1 for i in range(1, t + 1)]
    blue = [(i + 1) // 2 for i in range(1, t + 1)]
    return WedgeSpec(
        m=6 * j + 2,
        beams=tuple(
            BeamSpec(name, [BounceEvent(TOP if i % 2 else BOTTOM, rank) for i, rank in enumerate(ranks, 1)])
            for name, ranks in (("red", red), ("blue", blue))
        ),
    )


def gen_pencil(n: int) -> IncidenceStructure:
    """All n curves through one point."""
    if n < 3:
        raise ValueError(f"pencil needs n >= 3, got {n}")
    check_size("pencil", n, "curves")
    return IncidenceStructure(1, n, [range(n)])


def gen_near_pencil(n: int) -> IncidenceStructure:
    """n-1 concurrent curves plus one transversal meeting each separately."""
    if n < 3:
        raise ValueError(f"near-pencil needs n >= 3, got {n}")
    check_size("near-pencil", n, "curves")
    vertices = [tuple(range(n - 1))]
    vertices.extend((i, n - 1) for i in range(n - 1))
    return IncidenceStructure(1, n, vertices)


def gen_simple_cyclic(n: int) -> IncidenceStructure:
    """Simple arrangement: every pair of curves crosses at its own point."""
    if n < 3:
        raise ValueError(f"simple arrangement needs n >= 3, got {n}")
    check_size("simple arrangement", math.comb(n, 2), "vertices")
    vertices = [(i, k) for i in range(n) for k in range(i + 1, n)]
    return IncidenceStructure(1, n, vertices)
