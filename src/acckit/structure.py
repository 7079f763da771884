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
from typing import Iterable, Union


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
    def trusted(cls, alpha: int, n: int, vertices: Iterable[tuple[int, ...]], report=None) -> "IncidenceStructure":
        """A structure over records built as rising tuples of int ids within
        0..n-1, with alpha >= 1 and n >= 0, kept without any check.

        Only for records known to hold this already: by construction, as in
        a wedge expansion, or by the checks made while reading them, as in
        parse_structure.  The result equals what the constructor gives for
        the same records; anything else goes through the constructor.

        report, when given, is the ValidationReport the caller has proven
        for these records, as the expansion proves validity on its rotation
        quotient; validate returns it without a pass.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "alpha", alpha)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "vertices", tuple(vertices))
        object.__setattr__(s, "_report", report)
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


def validate(s: IncidenceStructure) -> ValidationReport:
    """Check every structure axiom; count every violation exactly and list
    the first 20 of each kind.

    Violations are data, not errors; the report is deterministic for a given
    input and lists small vertices, duplicate vertices, unused curves, pair
    multiplicities (by i, then j > i) and disconnection, in that order.
    Requires n >= 2 since pair multiplicity is meaningless below that.

    The check is one pass per curve i: counting the ids of the vertices on
    i gives, for every other curve j, how many vertices i and j share.  A
    row that is not all alpha fails n - 1 - i pairs with j > i, less the j
    it counts alpha times; it is walked only while examples remain to list.
    Let F be the number of full records (all n ids); they add F to every
    pair, so when d = alpha - F is 0 or 1 the other records decide a row
    without the count: for d = 0 it is right when no other record holds i,
    and for d = 1 when the other records on i hold sum(|v| - 1) = n - 1
    other ids and all n ids between them, so each other curve meets i
    exactly once on them.  When no pair is wrong, any two curves meet, so
    the membership graph is connected and the component count is skipped;
    if also every record holds two or more ids, F <= 1 and d <= 1, the
    structure is valid and the other checks are skipped too: no two records
    are equal (they would share a pair twice) and every curve lies on a
    record.  A lone full record at alpha = 1 (a pencil) is valid in closed
    form, before any row.

    The structure is immutable, so its report is computed once and kept on
    it (or kept by IncidenceStructure.trusted); later calls return it.
    """
    if s._report is not None:
        return s._report
    if s.n < 2:
        raise ValueError(f"validation requires at least 2 curves, got {s.n}")
    report = _full_report(s)
    object.__setattr__(s, "_report", report)
    return report


def meets_each_once(records: list[tuple[int, ...]], n: int) -> bool:
    """The records on a curve hold sum(|v| - 1) = n - 1 other ids and all n
    ids between them, so the curve meets every other curve exactly once on
    them."""
    return sum(map(len, records)) - len(records) == n - 1 and len(set(chain.from_iterable(records))) == n


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
    by one pass over the rows of the curves on some record (see validate),
    made before the small, duplicate and unused tallies.

    A curve on no record fails all its n - 1 - i pairs with j > i and is a
    component of its own, so those curves are counted in closed form and
    walked, in id order, only while examples remain to list: the work
    follows the records, not the declared n.
    """
    n, alpha, vertices = s.n, s.alpha, s.vertices
    sizes = list(map(len, vertices))
    full = sizes.count(n)
    d = alpha - full
    if len(vertices) == full == alpha == 1:
        return ValidationReport(valid=True, violations=())
    on = _records_by_curve(vertices)

    # The pairs of the unused rows, then those of every used row that fails.
    wrong = math.comb(n, 2) - sum(n - 1 - i for i in on)
    failing = []
    for i in sorted(on):
        records = on[i]
        other = [vertex for vertex in records if len(vertex) < n] if full else records
        if d == 0 and not other or d == 1 and meets_each_once(other, n):
            continue
        row = Counter(chain.from_iterable(records))
        if list(row.values()).count(alpha) - (row[i] == alpha) == n - 1:
            continue
        failing.append(i)
        wrong += n - 1 - i - sum(1 for j, observed in row.items() if observed == alpha and j > i)

    if not wrong and min(sizes) >= 2 and full <= 1 and d <= 1:
        return ValidationReport(valid=True, violations=())

    counts: dict[str, int] = {}
    violations: list[Violation] = []
    small = [i for i, size in enumerate(sizes) if size < 2]
    _tally(counts, violations, SmallVertex, len(small), small)

    seen: dict[tuple[int, ...], int] = {}
    repeats = ((seen[vertex], i) for i, vertex in enumerate(vertices) if seen.setdefault(vertex, i) != i)
    _tally(counts, violations, DuplicateVertex, len(vertices) - len(set(vertices)), repeats)

    _tally(counts, violations, UnusedCurve, n - len(on), (i for i in range(n) if i not in on))

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

    Rejects invalid structures with :class:`InvalidStructureError`.  By
    validate's rule the F = t_n full records add F to every pair.  When
    alpha - F <= 1, l_d has the closed form of census_stats.  Otherwise
    each curve walks its vertices in rising degree and credits every curve
    it has not met yet to the degree of the vertex where they first meet,
    the least degree over that pair's vertices; it stops once it has met
    all n curves.  Each pair is credited once from each of its two curves,
    so the totals are halved.
    """
    report = validate(s)
    if not report.valid:
        raise InvalidStructureError(report)

    r = max(Counter(chain.from_iterable(s.vertices)).values())
    tk: Counter[int] = Counter(map(len, s.vertices))
    if s.alpha - tk[s.n] <= 1:
        return census_stats(tk, r, s.n, s.alpha)

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
    return Stats(tk=dict(sorted(tk.items())), r=r, ld=dict(sorted(ld.items())))


def census_stats(tk: Counter[int], r: int, n: int, alpha: int = 1) -> Stats:
    """The Stats of a valid structure with degree counts tk, maximum curve
    degree r and alpha - t_n <= 1.  Every pair then lies in at most one
    record other than the full ones, of degree d < n and so the minimum,
    and l_d = t_d * C(d, 2) over d < n; for the pencil (alpha = t_n) the
    full record is every pair's only vertex, C(n, 2) at d = n."""
    ld = {d: count * math.comb(d, 2) for d, count in tk.items() if d < n or alpha == tk[n]}
    return Stats(tk=dict(sorted(tk.items())), r=r, ld=dict(sorted(ld.items())))
