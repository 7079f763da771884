"""Incidence structures over abstract curves, with validation and exact statistics.

An incidence structure records n curves (ids 0..n-1) and a sequence of
vertices, each vertex being a set of at least two curve ids.  A structure is
*valid* for its declared ``alpha`` when every unordered pair of curves
appears together in exactly ``alpha`` vertices, no two vertices carry the
same id set, every curve appears somewhere, and the bipartite membership
graph is connected.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import merge
from itertools import chain, islice
from operator import itemgetter, lt
from typing import Iterable, Sequence, Union


@dataclass(frozen=True)
class IncidenceStructure:
    """n curves plus vertex records, each a sorted tuple of distinct curve ids.

    The constructor normalizes vertex id order and rejects data that cannot
    describe any structure at all (ids out of range, duplicate ids inside a
    vertex, empty vertices).  A list or tuple of records that are already
    rising tuples of ints is checked in bulk and kept as it is; records that
    are rising by construction can skip even that through :meth:`trusted`.
    Semantic problems such as wrong pair multiplicities or disconnection are
    the job of :func:`validate`, which reports them instead of raising.
    """

    alpha: int
    n: int
    vertices: tuple[tuple[int, ...], ...]
    # The ValidationReport once validate() has run; not a field, so it stays
    # out of ==, hash and repr.
    _report = None

    def __init__(self, alpha: int, n: int, vertices: Iterable[Iterable[int]]):
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if n < 0:
            raise ValueError(f"curve count must be >= 0, got {n}")
        if type(vertices) in (list, tuple) and _already_normal(vertices, n):
            normalized = vertices
        else:
            normalized = []
            for vertex in vertices:
                ids = sorted(vertex)
                if not ids:
                    raise ValueError("empty vertex record")
                for a, b in zip(ids, ids[1:]):
                    if a == b:
                        raise ValueError(f"duplicate id {a} within a vertex")
                if ids[0] < 0 or ids[-1] >= n:
                    bad = ids[0] if ids[0] < 0 else ids[-1]
                    raise ValueError(f"curve id {bad} out of range 0..{n - 1}")
                normalized.append(tuple(ids))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", tuple(normalized))

    @classmethod
    def trusted(cls, alpha: int, n: int, vertices: Iterable[tuple[int, ...]]) -> "IncidenceStructure":
        """A structure over records built as rising tuples of int ids within
        0..n-1, with alpha >= 1 and n >= 0, kept without any check.

        Only for records known to hold this already: by construction, as in
        a wedge expansion, or by the checks made while reading them, as in
        parse_structure.  The result equals what the constructor gives for
        the same records; anything else goes through the constructor.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "alpha", alpha)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "vertices", tuple(vertices))
        return s


def _already_normal(vertices: list | tuple, n: int) -> bool:
    """True when every record is a non-empty tuple of int ids, strictly
    rising, within 0..n-1, checked in bulk.  Anything else goes through the
    constructor's per-record loop, which normalizes it or reports the first
    fault.
    """
    if not vertices or set(map(type, vertices)) != {tuple} or min(map(len, vertices)) == 0:
        return False
    if set(map(type, chain.from_iterable(vertices))) != {int}:
        return False
    in_range = min(map(itemgetter(0), vertices)) >= 0 and max(map(itemgetter(-1), vertices)) < n
    return in_range and strictly_rising(vertices)


def strictly_rising(vertices: list | tuple) -> bool:
    """True when each record, a non-empty tuple of ints, is strictly rising,
    checked in bulk over the records laid end to end.

    Of the adjacent pairs in that flat list, len(flat) - len(vertices) lie
    inside a record; the pairs across record boundaries are counted apart
    and subtracted.
    """
    flat = list(chain.from_iterable(vertices))
    firsts = list(map(itemgetter(0), vertices))
    lasts = list(map(itemgetter(-1), vertices))
    inside = sum(map(lt, flat, islice(flat, 1, None))) - sum(map(lt, lasts, islice(firsts, 1, None)))
    return inside == len(flat) - len(vertices)


@dataclass(frozen=True, slots=True)
class PairMultiplicity:
    """A curve pair covered by `observed` vertices instead of alpha."""

    pair: tuple[int, int]
    observed: int


@dataclass(frozen=True, slots=True)
class DuplicateVertex:
    """Two vertex records (by index) with identical id sets."""

    indices: tuple[int, int]


@dataclass(frozen=True, slots=True)
class Disconnected:
    """Bipartite membership graph splits into this many components."""

    components: int


@dataclass(frozen=True, slots=True)
class SmallVertex:
    """Vertex record (by index) with fewer than two curve ids."""

    index: int


@dataclass(frozen=True, slots=True)
class UnusedCurve:
    """Curve id that appears in no vertex."""

    id: int


Violation = Union[PairMultiplicity, DuplicateVertex, Disconnected, SmallVertex, UnusedCurve]


_EXAMPLES = 20  # violations listed per kind; the rest are only counted


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validate.  valid is exact, and counts maps each kind
    of violation found (by class name, in validate's order) to its exact
    number.  violations holds only examples: the first 20 of each kind, in
    that order.  A valid report has neither."""

    valid: bool
    violations: tuple[Violation, ...]
    counts: dict[str, int] = field(default_factory=dict, hash=False)


class InvalidStructureError(ValueError):
    """Raised by operations whose precondition is a valid structure."""

    def __init__(self, report: ValidationReport):
        self.report = report
        summary = ", ".join(f"{name} x{count}" for name, count in sorted(report.counts.items()))
        super().__init__(f"invalid incidence structure: {summary}")


class ExpansionError(Exception):
    """Base for failures while expanding a wedge; its subclasses live in
    wedge.py.  It lives here so that the CLI maps it to an exit code
    without loading the expansion."""


def validate(s: IncidenceStructure, automorphism: Sequence[int] | None = None) -> ValidationReport:
    """Check every structure axiom; count every violation exactly and list
    the first 20 of each kind.

    Violations are data, not errors; the report is deterministic for a given
    input and lists small vertices, duplicate vertices, unused curves, pair
    multiplicities (by i, then j > i) and disconnection, in that order.
    Requires n >= 2 since pair multiplicity is meaningless below that.

    The pair check is one pass per curve i: counting the ids of the vertices
    on i gives, for every other curve j, how many vertices i and j share.
    A row that is not all alpha fails n - 1 - i pairs with j > i, less the
    j it counts alpha times; it is walked only while examples remain to
    list.  For alpha = 1 the count is built only for rows that fail a
    cheaper test: the vertices on i hold sum(|v| - 1) = n - 1 other ids and
    all n ids between them, so each other curve meets i exactly once.  When
    every pair shares alpha >= 1 vertices, any two curves meet, so the
    membership graph is connected and the component count is skipped.

    automorphism, when given, is a permutation of the curve ids that the
    caller promises maps the multiset of records onto itself, such as the
    rotation of a wedge expansion.  Pair multiplicity is then constant along
    its orbits, so the row of one curve per cycle stands for every row.  For
    alpha = 1, when every record holds at least two ids and each
    representative meets every other curve exactly once, every pair meets
    exactly once; then no two records are equal (they would share a pair
    twice), every curve lies on a record, and any two curves meet, so the
    structure is connected.  The report is then valid without the pass over
    all n rows.  Anything else (another alpha, a small record, a
    representative row that fails) runs the full pass, so every report of an
    invalid structure is the same with or without the automorphism.

    For alpha = 2, exactly one full record (all n ids, a complete pencil)
    adds one to every pair, uses every curve and makes any two meet.  The
    structure is then valid, and connected, when every record holds two or
    more ids and each curve meets every other exactly once on the other
    records, by the cheap alpha = 1 row test (a repeated record would meet
    its pairs twice).  Anything else runs the full pass, so every invalid
    report is unchanged.

    The structure is immutable, so its report is computed once and kept on
    it; later calls return the same report.
    """
    if s._report is not None:
        return s._report
    if s.n < 2:
        raise ValueError(f"validation requires at least 2 curves, got {s.n}")
    if _rows_meet_once(s, automorphism):
        report = ValidationReport(valid=True, violations=())
    else:
        report = _full_report(s)
    object.__setattr__(s, "_report", report)
    return report


def _meets_each_once(records: list[tuple[int, ...]], n: int) -> bool:
    """For alpha = 1: the records on a curve hold sum(|v| - 1) = n - 1 other
    ids and all n ids between them, so the curve meets every other curve
    exactly once."""
    return sum(map(len, records)) - len(records) == n - 1 and len(set(chain.from_iterable(records))) == n


def _rows_meet_once(s: IncidenceStructure, automorphism: Sequence[int] | None) -> bool:
    """The shortcuts past the full pass (see validate): every record holds
    two or more ids, and each checked curve meets every other curve exactly
    once on the records that are not full.  For alpha = 1 with an
    automorphism the curve starting each of its cycles is checked; for
    alpha = 2 with exactly one full record every curve is, and that record
    is skipped.  Anything else takes the full pass."""
    n, vertices = s.n, s.vertices
    sizes = list(map(len, vertices))
    if min(sizes, default=0) < 2:
        return False
    if s.alpha == 1 and automorphism is not None:
        rows, seen = [], [False] * n
        for start in range(n):
            if not seen[start]:
                rows.append(start)
                cid = start
                while not seen[cid]:
                    seen[cid] = True
                    cid = automorphism[cid]
    elif s.alpha == 2 and sizes.count(n) == 1:
        rows, vertices = range(n), [vertex for vertex in vertices if len(vertex) < n]
    else:
        return False
    wanted = set(rows)
    on = _records_by_curve(vertex for vertex in vertices if not wanted.isdisjoint(vertex))
    return all(_meets_each_once(on.get(i, []), n) for i in rows)


def _records_by_curve(vertices: Iterable[tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
    """on[i] lists the records that hold curve i, in the order given; only
    the curves on some record are keys."""
    on: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for vertex in vertices:
        for cid in vertex:
            on[cid].append(vertex)
    return on


def _full_report(s: IncidenceStructure) -> ValidationReport:
    """Every violation counted, and the first _EXAMPLES of each kind listed,
    by one pass over the rows of the curves on some record (see validate).

    A curve on no record fails all its n - 1 - i pairs with j > i and is a
    component of its own, so those curves are counted in closed form and
    walked, in id order, only while examples remain to list: the work
    follows the records, not the declared n.
    """
    n, alpha, vertices = s.n, s.alpha, s.vertices
    counts: dict[str, int] = {}
    violations: list[Violation] = []
    small = [i for i, v in enumerate(vertices) if len(v) < 2]
    _tally(counts, violations, SmallVertex, len(small), small)

    seen: dict[tuple[int, ...], int] = {}
    repeats = ((seen[vertex], i) for i, vertex in enumerate(vertices) if seen.setdefault(vertex, i) != i)
    _tally(counts, violations, DuplicateVertex, len(vertices) - len(set(vertices)), repeats)

    on = _records_by_curve(vertices)
    _tally(counts, violations, UnusedCurve, n - len(on), (i for i in range(n) if i not in on))

    # The pairs of the unused rows, then those of every used row that fails.
    wrong = math.comb(n, 2) - sum(n - 1 - i for i in on)
    failing = []
    for i in sorted(on):
        records = on[i]
        if alpha == 1 and _meets_each_once(records, n):
            continue
        row = Counter(chain.from_iterable(records))
        if list(row.values()).count(alpha) - (row[i] == alpha) == n - 1:
            continue
        failing.append(i)
        wrong += n - 1 - i - sum(1 for j, observed in row.items() if observed == alpha and j > i)

    if wrong:
        counts[PairMultiplicity.__name__] = wrong
        # The failing and unused rows in id order, walked while examples remain.
        unused = (i for i in range(n) if i not in on)
        rows = ((i, Counter(chain.from_iterable(on.get(i, ())))) for i in merge(failing, unused))
        found = (PairMultiplicity((i, j), row[j]) for i, row in rows for j in range(i + 1, n) if row[j] != alpha)
        violations.extend(islice(found, _EXAMPLES))
        components = _component_count(on) + n - len(on)
        if components > 1:
            counts[Disconnected.__name__] = 1
            violations.append(Disconnected(components))

    return ValidationReport(valid=not violations, violations=tuple(violations), counts=counts)


def _tally(counts: dict[str, int], violations: list[Violation], kind: type, total: int, found: Iterable) -> None:
    """Count total violations of one kind, and list the first _EXAMPLES of
    them, built from the constructor arguments that found yields in order."""
    if total:
        counts[kind.__name__] = total
        violations.extend(map(kind, islice(found, _EXAMPLES)))


def _component_count(on: dict[int, list[tuple[int, ...]]]) -> int:
    """Components of the bipartite graph on the curves of on and the vertex
    records.

    on[i] lists the vertex records on curve i.  Every record holds at least
    one curve, so every component contains a curve, and the components are
    those of the curves joined through shared records.  Union-find over the
    curves joins each curve to the first id of every record on it, with path
    halving, and the roots are counted.
    """
    parent = {cid: cid for cid in on}

    def root(cid: int) -> int:
        while parent[cid] != cid:
            parent[cid] = parent[parent[cid]]
            cid = parent[cid]
        return cid

    for cid, records in on.items():
        for vertex in records:
            parent[root(cid)] = root(vertex[0])
    return sum(1 for cid, up in parent.items() if up == cid)


@dataclass(frozen=True)
class Stats:
    """Exact integer statistics of a valid structure.

    tk maps vertex degree k to the number of vertices of that exact degree.
    r is the maximum number of vertices on any single curve.  ld maps d to
    the number of curve pairs whose alpha common vertices have minimum
    degree d.
    """

    tk: dict[int, int]
    r: int
    ld: dict[int, int]

    def ld_total(self) -> int:
        """Sum of all ld values; equals C(n, 2) on valid input."""
        return sum(self.ld.values())


def compute_stats(s: IncidenceStructure) -> Stats:
    """Compute tk, r and the pair-minimum-degree profile.

    Rejects invalid structures with :class:`InvalidStructureError`.  For
    alpha = 1 each pair lies in exactly one vertex, so l_d has the closed
    form t_d * C(d, 2).  So does alpha = 2 with t_n = 1, over d < n: each
    pair's two vertices are the full record and one of degree d < n, the
    minimum.  For other alpha each curve walks its vertices in rising
    degree and credits every curve it has not met yet to the degree
    of the vertex where they first meet, the least degree over that pair's
    vertices; it stops once it has met all n curves.  Each pair is credited
    once from each of its two curves, so the totals are halved.
    """
    report = validate(s)
    if not report.valid:
        raise InvalidStructureError(report)

    incidences = Counter(chain.from_iterable(s.vertices))
    tk: Counter[int] = Counter(map(len, s.vertices))

    if s.alpha == 1 or (s.alpha == 2 and tk[s.n] == 1):
        ld = {d: count * math.comb(d, 2) for d, count in tk.items()}
        if s.alpha == 2:
            del ld[s.n]  # the full record is no pair's least-degree vertex
    else:
        on = _records_by_curve(sorted(s.vertices, key=len))
        twice: Counter[int] = Counter()
        for cid, records in on.items():
            met = {cid}
            for vertex in records:
                before = len(met)
                met.update(vertex)
                twice[len(vertex)] += len(met) - before
                if len(met) == s.n:
                    break
        ld = {d: count // 2 for d, count in twice.items() if count}

    return Stats(tk=dict(sorted(tk.items())), r=max(incidences.values()), ld=dict(sorted(ld.items())))
