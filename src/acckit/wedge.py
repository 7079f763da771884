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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator

from .limits import check_size
from .structure import ExpansionError, IncidenceStructure, Stats, ValidationReport, census_stats, meets_each_once, validate

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
    whose beams bounce `bounces` times in all: it numbers 2m * bounces beam
    atoms and m mirrors, each mirror with its id in the apex record and its
    ideal record (a tuple, two ids and a line of text), so 6 units a mirror,
    and that size may not exceed the budget set in ACCKIT_EXPAND_BUDGET
    (default 10^7).  Raises SizeLimitExceeded."""
    check_size("expansion", 6 * m + 2 * m * bounces, "units (6 per mirror, 1 per beam atom)")


class ExpandedArrangement:
    """A wedge's dihedral expansion: the incidence structure plus provenance
    labels.

    n is the curve count.  line_labels[i] describes curve id i;
    vertex_labels[j] describes structure.vertices[j].  paths yields every
    beam copy's boundary traversal in curve id order, for the renderer.  The
    constructor builds only the copy routes and the crossings, and raises
    what expand raises before assembly; structure, the labels and the
    quotient's Stats are built on first read and then kept.

    The quotient under the rotation by two wedge images builds no record:
    orbits() lists one record per orbit with the orbit's length and its
    images' labels, and valid and stats give validate's verdict and
    compute_stats(structure).  Only
    structure and vertex_labels build every record, each as an image of
    its orbit's record (_images).

    A beam's bounces alternate sides from the top edge, so every bounce
    carries a copy one wedge image on: from even wedge w a top bounce
    crosses ray w + 1, and from odd wedge w a bottom bounce crosses ray
    w + 1.  The copy of a t-bounce beam entering at even wedge e therefore
    runs segment s in wedge e + s on the way out and in wedge e + 2t - 1 - s
    on the way back (mod 2m), meets rays e, e + 1, ..., e + 2t, and enters
    again at odd wedge e + 2t - 1.  So every beam has m copies, one per even
    entry wedge, numbered by their lower entry wedge; _entered[bi][i] is the
    curve id of beam bi's copy entering at wedge 2i, and the records, paths
    and the rotation are read from it only when asked for.
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
        self._spec = spec
        self._m = m = spec.m
        self._nw = nw = 2 * m
        self._entered: list[list[int]] = []
        # The (beam, segment) pairs bouncing at each (side, rank).
        self._bouncing: dict[tuple[str, int], list[tuple[int, int]]] = {}
        next_id = m
        for bi, beam in enumerate(spec.beams):
            # The copy entering at wedge 2i enters again at 2i + back.
            back = 2 * len(beam.events) - 1
            entered = [0] * m
            for copy, i in enumerate(sorted(range(m), key=lambda i: min(2 * i, (2 * i + back) % nw)), next_id):
                entered[i] = copy
            self._entered.append(entered)
            next_id += m
            for s, event in enumerate(beam.events):
                self._bouncing.setdefault(event.key, []).append((bi, s))
        self._ranks = {side: sorted(rank for on, rank in self._bouncing if on == side) for side in (TOP, BOTTOM)}
        # The line at infinity is the last curve, n - 1.
        self.n = next_id + 1
        self._crossing_pairs = self._find_crossings()

    @cached_property
    def structure(self) -> IncidenceStructure:
        """The alpha = 1 structure, built on first read.  Its validity is
        the quotient's (see valid), and only an invalid one runs validate's
        full pass, for the report.  Raises ValidationFailed, on every read,
        when it is not valid."""
        proven = ValidationReport(valid=True, violations=()) if self.valid else None
        orbits = self.orbits()
        records = self._images(orbits, self._places(orbits))
        records.sort()
        structure = IncidenceStructure.trusted(1, self.n, records, proven)
        report = validate(structure)
        if not report.valid:
            raise ValidationFailed(report)
        return structure

    @property
    def valid(self) -> bool:
        """Whether structure is valid, decided on the quotient (_quotient_stats)."""
        return self._quotient_stats is not None

    @property
    def stats(self) -> Stats:
        """compute_stats(structure), read on the quotient (_quotient_stats).
        Raises ValidationFailed, building structure for its report, when the
        structure is not valid."""
        if self._quotient_stats is None:
            self.structure  # raises ValidationFailed
        return self._quotient_stats

    @cached_property
    def _quotient_stats(self) -> Stats | None:
        """The Stats of structure from its orbits alone, or None when it is
        not valid.  It is valid when every orbit's record holds two or more
        ids and every row of _rows meets every other curve once: the
        rotation keeps record sizes and carries rows onto rows and every
        curve onto some cycle's first.  The records' pair count, C(n, 2)
        when every pair meets once, refuses most invalid ones before any row
        is built.  Then t_k sums the orbit lengths by record size, r is the
        longest row or the line at infinity's degree, the summed lengths of
        the orbits whose record ends in it, and l_d follows from t_k."""
        orbits, n = self.orbits(), self.n
        if min(len(record) for record, *_ in orbits) < 2:
            return None
        if sum(length * len(record) * (len(record) - 1) // 2 for record, length, _ in orbits) != n * (n - 1) // 2:
            return None
        rows = self._rows(orbits)
        if not all(meets_each_once(row, n) for row in rows):
            return None
        tk: Counter[int] = Counter()
        for record, length, _ in orbits:
            tk[len(record)] += length
        infinity = sum(length for record, length, _ in orbits if record[-1] == n - 1)
        return census_stats(tk, max(infinity, *map(len, rows)), n)

    def orbits(self) -> list[tuple[tuple[int, ...], int, Callable[[int], VertexLabel]]]:
        """Every record orbit under the rotation by two wedge images (see
        _cycles), as a representative record, the orbit's length and the
        label of the record's k-th image as a function of k (its ray,
        mirror or wedge moved 2k places on, so that no label is built here):
        the apex (1); each bounce point's record at ray 0 or 1 (m); the
        ideal records of mirror 0 and, when m is even, mirror 1 (m / 2 each,
        or one orbit of m); and each crossing pair's records in wedges 0 and
        1 (m each).  The lengths sum to the vertex count.  Each record is
        built rising, as mirror ids come first and each beam's copy ids
        after the previous beam's: a bounce record holds the mirror through
        its ray, then in beam order the copies meeting there from the two
        wedges beside the ray (two, rising, or one where a copy meets
        itself); a crossing record holds the lower beam's copy first."""
        m, copy = self._m, self._copy
        orbits = [(tuple(range(m)), 1, lambda k: Apex())]
        for side, ray in ((BOTTOM, 0), (TOP, 1)):
            for rank in self._ranks[side]:
                record: tuple[int, ...] = (ray,)
                for bi, s in self._bouncing[side, rank]:
                    a, b = copy(bi, s, ray), copy(bi, s, ray - 1)
                    record += (a, b) if a < b else (b, a) if b < a else (a,)
                orbits.append((record, m, lambda k, ray=ray, rank=rank: Bounce(ray + 2 * k, rank)))
        # Even m splits the mirrors, and so the ideal points, into two orbits.
        # Each beam's copies entering at wedge 0 (its least id) and, for even
        # m, m have both ends on mirror 0, and then none has one on mirror 1.
        split = 2 - m % 2
        copies = [entered[i] for entered in self._entered for i in range(0, m, m // split)]
        ideals = [(0, *copies, self.n - 1), (1, self.n - 1)][:split]
        orbits += [(record, m // split, lambda k, mi=mi: Ideal((mi + 2 * k) % m)) for mi, record in enumerate(ideals)]
        for b1, s1, b2, s2 in self._crossing_pairs:
            orbits += [((copy(b1, s1, w), copy(b2, s2, w)), m, lambda k, w=w: Crossing(w + 2 * k)) for w in (0, 1)]
        return orbits

    def _images(self, orbits: list[tuple[tuple[int, ...], int, Callable[[int], VertexLabel]]], place: dict[int, tuple[list[int], int]]) -> list[tuple[int, ...]]:
        """Every record: the images of each orbit's record (R, L) under
        the rotation's k-th powers, 0 <= k < L, in orbit order, each rising.
        The k-th power moves every id k places along its cycle (place, as
        _places gives it), so each id's images are one slice of its cycle,
        and the slices zip into the images.  Only two copies of one beam,
        next to each other (a bounce or, for even m, an ideal pair), can
        swap; their columns are ordered pairwise."""
        images: list[tuple[int, ...]] = []
        for record, length, _ in orbits:
            if length == 1:
                # The rotation's 0th power is the identity.
                images.append(record)
                continue
            columns: list[list[int]] = []
            last = None
            for cid in record:
                cycle, p = place[cid]
                column = (cycle * -(-(p + length) // len(cycle)))[p : p + length]
                if cycle is last:
                    low = columns[-1]
                    columns[-1] = [a if a < b else b for a, b in zip(low, column)]
                    column = [b if a < b else a for a, b in zip(low, column)]
                columns.append(column)
                last = cycle
            images += zip(*columns)
        return images

    def _cycles(self) -> list[list[int]]:
        """The rotation's cycles, each in the order the rotation moves its
        ids, so that its k-th power moves every id k places on: mirror i
        goes to i + 2 mod m, the copy _entered[b][i] to _entered[b][i + 1]
        and the line at infinity stays.  A copy's route moves two wedges on
        with its entry, and every record is indexed by ray, wedge or mirror,
        so the rotation carries the records onto themselves.  Each cycle
        starts at its least id."""
        m = self._m
        mirrors = [list(range(0, m, 2)), list(range(1, m, 2))] if m % 2 == 0 else [[2 * i % m for i in range(m)]]
        return [*mirrors, *self._entered, [self.n - 1]]

    def _places(self, orbits: list[tuple[tuple[int, ...], int, Callable[[int], VertexLabel]]]) -> dict[int, tuple[list[int], int]]:
        """The cycle (_cycles) and place on it of each id in the records
        that the rotation moves (L > 1) in orbits: not the apex's m mirrors."""
        ids = {cid for record, length, _ in orbits if length > 1 for cid in record}
        return {cid: (cycle, p) for cycle in self._cycles() for p, cid in enumerate(cycle) if cid in ids}

    def _rows(self, orbits: list[tuple[tuple[int, ...], int, Callable[[int], VertexLabel]]]) -> list[list[tuple[int, ...]]]:
        """The records on each cycle's first curve c, in _cycles order, but
        the line at infinity's, which the rotation fixes: once every other
        row meets every curve once, so does it.  For each orbit (R, L), the
        images of R under the rotation's k-th powers, 0 <= k < L, that hold
        c.  An id at place p of a cycle of length P reaches c exactly when
        k = -p (mod P), so a record the rotation fixes (L = 1: the apex)
        lies on the rows of the cycle starts it holds, and only the other
        records' ids need their places."""
        rows: dict[int, list[tuple[int, ...]]] = {cycle[0]: [] for cycle in self._cycles()[:-1]}
        place = self._places(orbits)
        for record, length, _ in orbits:
            if length == 1:
                for start in rows.keys() & set(record):
                    rows[start].append(record)
                continue
            places = [place[cid] for cid in record]
            for cycle, p in places:
                row = rows.get(cycle[0])
                if row is None:
                    continue
                for k in range(-p % len(cycle), length, len(cycle)):
                    # The rotation's 0th power is the identity.
                    row.append(tuple(image[(q + k) % len(image)] for image, q in places) if k else record)
        return list(rows.values())

    @cached_property
    def line_labels(self) -> tuple[LineLabel, ...]:
        labels: list[LineLabel] = [Mirror(i) for i in range(self._m)]
        for beam in self._spec.beams:
            labels.extend(BeamCopy(beam.name, copy) for copy in range(self._m))
        labels.append(LineAtInfinity())
        return tuple(labels)

    @cached_property
    def vertex_labels(self) -> tuple[VertexLabel, ...]:
        """Each vertex's label, in the sorted order of structure.vertices:
        each orbit's images (_images) with their labels (orbits).  Any order
        of the images gives the same labels: once the structure passes
        validation no two records are equal, so the sort has no ties."""
        orbits = self.orbits()
        ids = self._images(orbits, self._places(orbits))
        labels = [label(k) for _, length, label in orbits for k in range(length)]
        return tuple(map(labels.__getitem__, sorted(range(len(ids)), key=ids.__getitem__)))

    @property
    def paths(self) -> Iterator[CopyPath]:
        """Every copy's waypoints, in curve id order, made on each read:
        rays rising from its even entry 2i to 2i + 2t when that is its lower
        entry, else falling from 2i + 2t back to 2i."""
        for beam, entered in zip(self._spec.beams, self._entered):
            ranks = [event.rank for event in beam.events]
            # Each copy's waypoint kinds and ranks, the same read either way.
            shape = [("ideal", 0)] + [("bounce", rank) for rank in ranks + ranks[-2::-1]] + [("ideal", 0)]
            span = 2 * len(ranks)
            for copy, i in enumerate(sorted(range(self._m), key=entered.__getitem__)):
                e = 2 * i
                rays = range(e, e + span + 1) if e < (e + span - 1) % self._nw else range(e + span, e - 1, -1)
                yield beam.name, copy, tuple((kind, ray % self._nw, rank) for (kind, rank), ray in zip(shape, rays))

    def apex_degree(self) -> int:
        # The apex record holds the m mirrors.
        return self._m

    def _find_crossings(self) -> list[tuple[int, int, int, int]]:
        """Interleaving segment pairs inside the fundamental wedge, as
        (beam, segment, beam, segment).

        Boundary cycle, numbered from 0: the bottom ranks outward
        (decreasing rank), the bottom ideal point, the top ideal point, then
        the top ranks inward (increasing rank), back to the apex.  Every
        entry segment starts at the bottom ideal point; no segment ends at
        the top one.  Chords strictly interleaving on this cycle cross once
        inside the wedge; chords sharing an endpoint meet on the boundary
        instead.  Interleaving does not depend on where the cycle is cut, so
        with each chord as its (lo, hi) positions it is one comparison.
        """
        ideal = len(self._ranks[BOTTOM])
        position = {(BOTTOM, rank): ideal - 1 - i for i, rank in enumerate(self._ranks[BOTTOM])}
        position.update(((TOP, rank), ideal + 2 + i) for i, rank in enumerate(self._ranks[TOP]))

        chords: list[tuple[int, int, int, int]] = []  # (beam, segment, lo, hi)
        for bi, beam in enumerate(self._spec.beams):
            for s in range(len(beam.events)):
                start = ideal if s == 0 else position[beam.events[s - 1].key]
                end = position[beam.events[s].key]
                chords.append((bi, s, min(start, end), max(start, end)))

        pairs = []
        for (b1, s1, lo1, hi1), (b2, s2, lo2, hi2) in combinations(chords, 2):
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                if b1 == b2:
                    raise SelfCrossingBeam(self._spec.beams[b1].name, s1, s2)
                pairs.append((b1, s1, b2, s2))
        return pairs

    def _copy(self, bi: int, s: int, w: int) -> int:
        """The curve id of beam bi's segment s in wedge w: the copy entering
        at wedge 2i with i = (w - s) / 2 when that is whole (on its way
        out), else i = (w + s + 1) / 2 - t (on its way back)."""
        t = len(self._spec.beams[bi].events)
        return self._entered[bi][((w - s) // 2 if (w - s) % 2 == 0 else (w + s + 1) // 2 - t) % self._m]


def expand(spec: WedgeSpec) -> ExpandedArrangement:
    """Expand a wedge into the full dihedrally symmetric arrangement, its
    structure built and validated.

    Deterministic and purely combinatorial.  Raises SelfCrossingBeam when two
    segments of one beam interleave inside a wedge, NonClosingBeam when a
    pseudoline copy fails to close through a single ideal point (exactly
    when m does not divide 2t for a beam of t bounces), SizeLimitExceeded
    when the beams close but 6m + 2m * (total bounces) exceeds the expansion
    budget (see check_expansion_size), and ValidationFailed when the
    assembled structure is not a genuine alpha = 1 incidence structure.

    The expansion is symmetric under rotation by two wedge images, so its
    validity is decided on the rotation quotient (ExpandedArrangement.valid)
    and handed to IncidenceStructure.trusted as a proven report.  A failure
    runs validate's full pass, so ValidationFailed carries the same report
    either way.
    """
    arrangement = ExpandedArrangement(spec)
    arrangement.structure  # raises ValidationFailed
    return arrangement
