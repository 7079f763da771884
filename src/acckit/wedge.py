"""Kaleidoscope wedges and their dihedral expansion into full arrangements.

A wedge of dihedral order m is the fundamental domain of an arrangement with
the symmetry of a regular m-gon.  Its two edges lie on mirror lines meeting
at the apex with angle pi/m; beams bounce between the edges like light in a
kaleidoscope.  Expansion reflects the wedge 2m times around the apex and
reconstructs every pseudoline combinatorially: no coordinates appear
anywhere, only ray indices, rank orders along the rays, and chord
interleaving on the wedge boundary.

Ray convention: the 2m reflected wedge images are indexed 0..2m-1 around the
apex with alternating orientation, wedge w spanning rays w and w+1 (mod 2m).
Even rays carry images of the bottom edge, odd rays images of the top edge,
and opposite rays r and r+m form the full mirror line r mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .limits import check_size
from .structure import IncidenceStructure, ValidationReport, validate

TOP = "T"
BOTTOM = "B"


@dataclass(frozen=True)
class BounceEvent:
    """One bounce of a beam: the edge it hits and its rank along that edge.

    Rank counts positions from infinity toward the apex; rank 1 is the point
    farthest from the apex.  Equal (side, rank) keys in different beams name
    the same geometric point.
    """

    side: str
    rank: int

    def __post_init__(self):
        if self.side not in (TOP, BOTTOM):
            raise ValueError(f"side must be {TOP!r} or {BOTTOM!r}, got {self.side!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.side, self.rank)


@dataclass(frozen=True)
class BeamSpec:
    """A beam: its name and bounce events in order, ending at the
    terminating bounce after which the beam retraces its path."""

    name: str
    events: tuple[BounceEvent, ...]

    def __init__(self, name: str, events):
        events = tuple(events)
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"beam name must be a nonempty token, got {name!r}")
        if not events:
            raise ValueError(f"beam {name!r} must have at least one bounce")
        if events[0].side != TOP:
            raise ValueError(f"beam {name!r} must bounce first on the top edge")
        for a, b in zip(events, events[1:]):
            if a.side == b.side:
                raise ValueError(f"beam {name!r} bounce sides must alternate")
        keys = [e.key for e in events]
        if len(set(keys)) != len(keys):
            raise ValueError(f"beam {name!r} repeats a (side, rank) point")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "events", events)


@dataclass(frozen=True)
class WedgeSpec:
    """Dihedral order m (wedge angle pi/m) plus the beams inside the wedge."""

    m: int
    beams: tuple[BeamSpec, ...]

    def __init__(self, m: int, beams=()):
        beams = tuple(beams)
        if m < 2:
            raise ValueError(f"dihedral order must be >= 2, got {m}")
        names = [b.name for b in beams]
        if len(set(names)) != len(names):
            raise ValueError("beam names must be unique")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "beams", beams)


# Line labels.


@dataclass(frozen=True)
class Mirror:
    index: int


@dataclass(frozen=True)
class BeamCopy:
    beam: str
    copy: int


@dataclass(frozen=True)
class LineAtInfinity:
    pass


# Vertex labels.


@dataclass(frozen=True)
class Apex:
    pass


@dataclass(frozen=True)
class Bounce:
    ray: int
    rank: int


@dataclass(frozen=True)
class Crossing:
    wedge: int


@dataclass(frozen=True)
class Ideal:
    mirror: int


LineLabel = Mirror | BeamCopy | LineAtInfinity
VertexLabel = Apex | Bounce | Crossing | Ideal

# ("ideal", ray, 0) or ("bounce", ray, rank); a copy's path is
# (beam name, copy index, waypoints from one ideal end to the other).
Waypoint = tuple[str, int, int]
CopyPath = tuple[str, int, tuple[Waypoint, ...]]


class ExpandedArrangement:
    """Expansion result: the incidence structure plus provenance labels.

    line_labels[i] describes curve id i; vertex_labels[j] describes
    structure.vertices[j].  paths holds every beam copy's boundary
    traversal in curve id order, for the renderer.  Expansion itself builds
    only the curve ids; vertex_labels and paths are built on first read and
    then kept.  The structure always passes validation with alpha = 1;
    expansion raises instead of returning anything weaker.
    """

    def __init__(self, structure: IncidenceStructure, expansion: _Expansion, ids: list[tuple[int, ...]]):
        self.structure = structure
        self.line_labels: tuple[LineLabel, ...] = expansion.line_labels()
        self._expansion = expansion
        # The records in the order they were built; structure.vertices holds
        # them sorted.
        self._ids = ids

    @cached_property
    def vertex_labels(self) -> tuple[VertexLabel, ...]:
        order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
        return tuple(map(self._expansion.vertex_labels().__getitem__, order))

    @cached_property
    def paths(self) -> tuple[CopyPath, ...]:
        return self._expansion.paths()

    def apex_degree(self) -> int:
        # The apex is the first vertex built.
        return len(self._ids[0])


class ExpansionError(Exception):
    """Base for failures while expanding a wedge."""


class SelfCrossingBeam(ExpansionError):
    def __init__(self, beam: str, s1: int, s2: int):
        self.beam = beam
        self.segments = (s1, s2)
        super().__init__(f"beam {beam!r} segments {s1} and {s2} cross inside the wedge")


class NonClosingBeam(ExpansionError):
    def __init__(self, beam: str, mirrors: tuple[int, int]):
        self.beam = beam
        self.mirrors = mirrors
        super().__init__(
            f"beam {beam!r} copy reaches infinity at mirrors {mirrors[0]} and "
            f"{mirrors[1]}; a pseudoline must close through a single ideal point"
        )


class ValidationFailed(ExpansionError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(f"expanded arrangement failed validation with {sum(report.counts.values())} violation(s)")


def check_expansion_size(m: int, bounces: int) -> None:
    """Refuse, before anything is built, an expansion of dihedral order m
    whose beams bounce `bounces` times in all: it numbers m mirrors and
    2m * bounces beam atoms, and that size may not exceed the budget set in
    ACCKIT_EXPAND_BUDGET (default 10^7).  Raises SizeLimitExceeded."""
    check_size("expansion", m + 2 * m * bounces, "mirrors and beam atoms")


class _Expansion:
    """The machinery behind expand().

    Beam segment s in wedge image w is the atom (beam, w, s).  Bouncing off
    an edge reflects the wedge index across that edge's ray: a top bounce
    maps w to w ^ 1, a bottom bounce maps w to w - 1 for even w and to w + 1
    for odd w (mod 2m).  A pseudoline copy is therefore one walk: from an
    entry segment (s = 0) forward through the beam's bounces, reflected at
    the terminating bounce, and back through the same bounces to a second
    entry segment.  Each walk covers 2t of the beam's 2m * t atoms, so every
    beam has m copies, numbered by their lowest entry wedge.  The walk
    records each atom's curve id and the rays each copy meets; labels and
    waypoints are built from these only when asked for.
    """

    def __init__(self, spec: WedgeSpec):
        # A copy entering at even wedge e steps through wedges e..e+2t-1 and
        # leaves through bottom ray e + 2t, so it closes on a single mirror
        # exactly when m divides 2t, and then every copy of the beam does.
        # The first copy walked enters at wedge 0, on mirror 0.
        for beam in spec.beams:
            other = 2 * len(beam.events) % spec.m
            if other:
                raise NonClosingBeam(beam.name, (0, other))
        check_expansion_size(spec.m, sum(len(beam.events) for beam in spec.beams))
        self.spec = spec
        self.m = spec.m
        self.nw = nw = 2 * spec.m
        # across[side][w] = (ray, wedge beyond it) for wedge w's top or
        # bottom edge.
        self.across = {
            TOP: [(w | 1, w ^ 1) for w in range(nw)],
            BOTTOM: [(w, (w - 1) % nw) if w % 2 == 0 else ((w + 1) % nw, (w + 1) % nw) for w in range(nw)],
        }
        self._walk()
        self._find_crossings()

    def _walk(self):
        """Number every beam copy and record its rays.

        Both loose ends of a copy are entry segments, which run parallel to
        the wedge's bottom edge and so reach infinity at the bottom mirror's
        ideal point; closure, checked up front, puts both on one mirror.
        """
        m, bottom = self.m, self.across[BOTTOM]
        # curves[bi][w * t + s] is the curve id of atom (bi, w, s).
        self.curves: list[list[int]] = []
        # rays[bi] holds, copy after copy, the ray of the copy's first ideal
        # end, of each bounce along its route, and of its second ideal end.
        self.rays: list[list[int]] = []
        self.ideal_members: list[list[int]] = [[] for _ in range(m)]
        next_id = m
        for beam in self.spec.beams:
            t = len(beam.events)
            steps = [self.across[event.side] for event in beam.events]
            # (segment, bounce ending it): out through every bounce, then
            # back from the terminating one.
            route = [(s, steps[s]) for s in range(t)]
            route += [(s, steps[s - 1]) for s in range(t - 1, 0, -1)]
            curve = [0] * (self.nw * t)
            rays: list[int] = []
            for start in range(self.nw):
                if curve[start * t]:
                    continue
                w = start
                rays.append(bottom[start][0])
                for s, across in route:
                    curve[w * t + s] = next_id
                    ray, w = across[w]
                    rays.append(ray)
                curve[w * t] = next_id
                rays.append(bottom[w][0])
                self.ideal_members[bottom[start][0] % m].append(next_id)
                next_id += 1
            self.curves.append(curve)
            self.rays.append(rays)
        self.infinity_id = next_id
        self.n = next_id + 1

    def paths(self) -> tuple[CopyPath, ...]:
        """Every copy's waypoints, in curve id order, from the recorded rays."""
        paths: list[CopyPath] = []
        for beam, rays in zip(self.spec.beams, self.rays):
            ranks = [event.rank for event in beam.events]
            # Each copy's waypoint kinds and ranks, in route order.
            shape = [("ideal", 0)] + [("bounce", rank) for rank in ranks + ranks[-2::-1]] + [("ideal", 0)]
            size = len(shape)
            for copy, at in enumerate(range(0, len(rays), size)):
                waypoints = tuple((kind, ray, rank) for (kind, rank), ray in zip(shape, rays[at : at + size]))
                paths.append((beam.name, copy, waypoints))
        return tuple(paths)

    def _find_crossings(self):
        """Interleaving segment pairs inside the fundamental wedge.

        Boundary cycle, numbered from 0: the bottom ranks outward
        (decreasing rank), the bottom ideal point, the top ideal point, then
        the top ranks inward (increasing rank), back to the apex.  Every
        entry segment starts at the bottom ideal point; no segment ends at
        the top one.  Chords strictly interleaving on this cycle cross once
        inside the wedge; chords sharing an endpoint meet on the boundary
        instead.  Interleaving does not depend on where the cycle is cut, so
        with each chord as its (lo, hi) positions it is one comparison.
        """
        ranks: dict[str, set[int]] = {TOP: set(), BOTTOM: set()}
        for beam in self.spec.beams:
            for event in beam.events:
                ranks[event.side].add(event.rank)
        self.ranks = {side: sorted(found) for side, found in ranks.items()}

        ideal = len(self.ranks[BOTTOM])
        position = {(BOTTOM, rank): ideal - 1 - i for i, rank in enumerate(self.ranks[BOTTOM])}
        position.update(((TOP, rank), ideal + 2 + i) for i, rank in enumerate(self.ranks[TOP]))

        chords: list[tuple[int, int, int, int]] = []  # (beam, segment, lo, hi)
        for bi, beam in enumerate(self.spec.beams):
            for s in range(len(beam.events)):
                start = ideal if s == 0 else position[beam.events[s - 1].key]
                end = position[beam.events[s].key]
                chords.append((bi, s, min(start, end), max(start, end)))

        self.crossing_pairs: list[tuple[int, int, int, int]] = []
        for (b1, s1, lo1, hi1), (b2, s2, lo2, hi2) in combinations(chords, 2):
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                if b1 == b2:
                    raise SelfCrossingBeam(self.spec.beams[b1].name, s1, s2)
                self.crossing_pairs.append((b1, s1, b2, s2))

    def line_labels(self) -> tuple[LineLabel, ...]:
        labels: list[LineLabel] = [Mirror(i) for i in range(self.m)]
        for beam in self.spec.beams:
            labels.extend(BeamCopy(beam.name, copy) for copy in range(self.m))
        labels.append(LineAtInfinity())
        return tuple(labels)

    def _column(self, bi: int, s: int) -> list[int]:
        """Curve ids of beam bi's segment s in wedges 0..2m-1."""
        t = len(self.spec.beams[bi].events)
        return self.curves[bi][s::t]

    def vertex_ids(self) -> list[tuple[int, ...]]:
        """Every vertex's sorted curve ids, in the order vertex_labels lists
        their labels: the apex, the bounces by side (bottom first), rank and
        ray, the ideal points, then the crossings by segment pair and wedge.

        The bounce vertex at (ray, rank) holds the mirror through the ray
        and, for every beam bouncing at that (side, rank), the copies
        meeting there from the two wedges the ray separates.  Mirror ids
        sort before every copy id.  A crossing pair of segments lies in two
        distinct beams, so its two copies differ.

        Any generation order gives the same vertex_labels: the structure
        sorts these records, and once it passes validation no two are equal,
        so the sort has no ties to break.
        """
        m, nw = self.m, self.nw
        ids: list[tuple[int, ...]] = [tuple(range(m))]
        bouncing: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for bi, beam in enumerate(self.spec.beams):
            for s, event in enumerate(beam.events):
                bouncing.setdefault(event.key, []).append((bi, s))
        for side, parity in ((BOTTOM, 0), (TOP, 1)):
            mirrors = [ray % m for ray in range(parity, nw, 2)]
            for rank in self.ranks[side]:
                # For each beam, its copies on rays parity, parity + 2, ...
                # and on the wedges just before those rays.
                columns = []
                for bi, s in bouncing[side, rank]:
                    column = self._column(bi, s)
                    columns.append(column[parity::2])
                    columns.append(column[0::2] if parity else column[-1:] + column[1:-1:2])
                if len(columns) == 2:
                    ids.extend(
                        (mi, a, b) if a < b else (mi, b, a) if b < a else (mi, a)
                        for mi, a, b in zip(mirrors, *columns)
                    )
                else:
                    ids.extend((mi, *sorted(set(copies))) for mi, *copies in zip(mirrors, *columns))
        ids.extend((mi, *members, self.infinity_id) for mi, members in enumerate(self.ideal_members))
        for b1, s1, b2, s2 in self.crossing_pairs:
            ids.extend((a, b) if a < b else (b, a) for a, b in zip(self._column(b1, s1), self._column(b2, s2)))
        return ids

    def vertex_labels(self) -> list[VertexLabel]:
        """The label of each vertex, in vertex_ids() order."""
        labels: list[VertexLabel] = [Apex()]
        for side, parity in ((BOTTOM, 0), (TOP, 1)):
            for rank in self.ranks[side]:
                labels.extend(Bounce(ray, rank) for ray in range(parity, self.nw, 2))
        labels.extend(map(Ideal, range(self.m)))
        for _ in self.crossing_pairs:
            labels.extend(map(Crossing, range(self.nw)))
        return labels

    def rotation(self) -> list[int]:
        """Curve ids under rotation by two wedge images: mirror i goes to
        mirror i + 2 mod m, the copy through atom (b, w, s) to the copy
        through (b, w + 2, s), and the line at infinity stays.

        The reflection tables commute with w -> w + 2, so the copy entering
        at wedge w is carried onto the one entering at w + 2; reading the
        entry column (s = 0) of each beam gives the whole map.  Every record
        vertex_ids builds is indexed by ray or wedge, so the map carries the
        records onto themselves.
        """
        m = self.m
        image = [(i + 2) % m for i in range(m)] + [self.infinity_id] * (self.n - m)
        for curve, beam in zip(self.curves, self.spec.beams):
            entry = curve[:: len(beam.events)]
            for copy, rotated in zip(entry, entry[2:] + entry[:2]):
                image[copy] = rotated
        return image

    def arrangement(self) -> ExpandedArrangement:
        ids = self.vertex_ids()
        # Every record is a rising tuple of ids within 0..n-1 by
        # construction (see vertex_ids).
        structure = IncidenceStructure.trusted(1, self.n, sorted(ids))
        report = validate(structure, self.rotation())
        if not report.valid:
            raise ValidationFailed(report)
        return ExpandedArrangement(structure, self, ids)


def expand(spec: WedgeSpec) -> ExpandedArrangement:
    """Expand a wedge into the full dihedrally symmetric arrangement.

    Deterministic and purely combinatorial.  Raises SelfCrossingBeam when two
    segments of one beam interleave inside a wedge, NonClosingBeam when a
    pseudoline copy fails to close through a single ideal point (exactly
    when m does not divide 2t for a beam of t bounces), SizeLimitExceeded
    when the beams close but m + 2m * (total bounces) exceeds the expansion
    budget (see check_expansion_size), and ValidationFailed when the
    assembled structure is not a genuine alpha = 1 incidence structure.

    The expansion is symmetric under rotation by two wedge images, so it is
    validated by rotation orbits (validate given the rotation): one curve
    per orbit is checked instead of all n.  A failure runs the full check,
    so ValidationFailed carries the same report either way.
    """
    return _Expansion(spec).arrangement()

