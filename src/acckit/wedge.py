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
from .structure import ExpansionError, IncidenceStructure, ValidationReport, validate

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

    A beam's bounces alternate sides from the top edge, so every bounce
    carries a copy one wedge image on: from even wedge w a top bounce
    crosses ray w + 1, and from odd wedge w a bottom bounce crosses ray
    w + 1.  The copy of a t-bounce beam entering at even wedge e therefore
    runs segment s in wedge e + s on the way out and in wedge e + 2t - 1 - s
    on the way back (mod 2m), meets rays e, e + 1, ..., e + 2t, and enters
    again at odd wedge e + 2t - 1.  So every beam has m copies, one per even
    entry wedge, numbered by their lower entry wedge; entered[bi][i] is the
    curve id of beam bi's copy entering at wedge 2i, and columns, paths and
    the rotation are read from it only when asked for.
    """

    def __init__(self, spec: WedgeSpec):
        # Both loose ends of a copy are entry segments, parallel to the
        # bottom edge, so they reach infinity on bottom rays e and e + 2t:
        # one mirror exactly when m divides 2t, and then for every copy of
        # the beam.  The first copy enters at wedge 0, on mirror 0.
        for beam in spec.beams:
            other = 2 * len(beam.events) % spec.m
            if other:
                raise NonClosingBeam(beam.name, (0, other))
        check_expansion_size(spec.m, sum(len(beam.events) for beam in spec.beams))
        self.spec = spec
        self.m = m = spec.m
        self.nw = nw = 2 * m
        self.entered: list[list[int]] = []
        self.ideal_members: list[list[int]] = [[] for _ in range(m)]
        next_id = m
        for beam in spec.beams:
            # The copy entering at wedge 2i enters again at 2i + back, and
            # both its ends lie on mirror 2i mod m.
            back = 2 * len(beam.events) - 1
            entered = [0] * m
            for copy, i in enumerate(sorted(range(m), key=lambda i: min(2 * i, (2 * i + back) % nw)), next_id):
                entered[i] = copy
                self.ideal_members[2 * i % m].append(copy)
            self.entered.append(entered)
            next_id += m
        self.infinity_id = next_id
        self.n = next_id + 1
        self._find_crossings()

    def paths(self) -> tuple[CopyPath, ...]:
        """Every copy's waypoints, in curve id order: rays rising from its
        even entry 2i to 2i + 2t when that is its lower entry, else falling
        from 2i + 2t back to 2i."""
        paths: list[CopyPath] = []
        for beam, entered in zip(self.spec.beams, self.entered):
            ranks = [event.rank for event in beam.events]
            # Each copy's waypoint kinds and ranks, the same read either way.
            shape = [("ideal", 0)] + [("bounce", rank) for rank in ranks + ranks[-2::-1]] + [("ideal", 0)]
            span = 2 * len(ranks)
            for copy, i in enumerate(sorted(range(self.m), key=entered.__getitem__)):
                e = 2 * i
                rays = range(e, e + span + 1) if e < (e + span - 1) % self.nw else range(e + span, e - 1, -1)
                waypoints = tuple((kind, ray % self.nw, rank) for (kind, rank), ray in zip(shape, rays))
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
        """Curve ids of beam bi's segment s in wedges 0..2m-1: in wedge
        w = s + 2j the copy entering at 2j on its way out, in the others
        the copy entering at w + s + 1 - 2t on its way back."""
        entered, t = self.entered[bi], len(self.spec.beams[bi].events)
        out, back = -(s // 2) % self.m, (s // 2 + 1 - t) % self.m
        column = [0] * self.nw
        column[s % 2 :: 2] = entered[out:] + entered[:out]
        column[1 - s % 2 :: 2] = entered[back:] + entered[:back]
        return column

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
        mirror i + 2 mod m, each beam's copy entering at wedge 2i to the one
        entering at 2i + 2, and the line at infinity stays.

        A copy's whole route moves two wedges on with its entry, and every
        record vertex_ids builds is indexed by ray or wedge, so the map
        carries the records onto themselves.
        """
        m = self.m
        image = [(i + 2) % m for i in range(m)] + [self.infinity_id] * (self.n - m)
        for entered in self.entered:
            for copy, rotated in zip(entered, entered[1:] + entered[:1]):
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

