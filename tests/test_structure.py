"""Data model, validation, and statistics tests."""

import math
from collections import Counter, deque
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acckit.structure
from acckit import (
    Disconnected,
    DuplicateVertex,
    IncidenceStructure,
    InvalidStructureError,
    PairMultiplicity,
    SmallVertex,
    UnusedCurve,
    ValidationReport,
    compute_stats,
    family_wedge,
    expand,
    gen_near_pencil,
    gen_pencil,
    gen_simple_cyclic,
    parse_structure,
    pg2,
    serialize_structure,
    structure_from_lines,
    validate,
)
from acckit.structure import meets_each_once


def curve_degrees(s):
    """Number of vertices on each curve, by curve id."""
    incidences = Counter(chain.from_iterable(s.vertices))
    return tuple(incidences[cid] for cid in range(s.n))


def canonical(s):
    """The structure with its vertices sorted lexicographically, the order
    in which serialize_structure writes them."""
    return IncidenceStructure(s.alpha, s.n, sorted(s.vertices))


def test_constructor_sorts_vertex_ids():
    s = IncidenceStructure(1, 3, [(2, 0), (1, 0), (2, 1)])
    assert s.vertices == ((0, 2), (0, 1), (1, 2))


def test_constructor_rejects_duplicate_ids_in_vertex():
    with pytest.raises(ValueError, match="duplicate id"):
        IncidenceStructure(1, 3, [(0, 0, 1)])


def test_constructor_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match="out of range"):
        IncidenceStructure(1, 3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        IncidenceStructure(1, 3, [(-1, 2)])


def test_constructor_rejects_empty_vertex_and_bad_alpha():
    with pytest.raises(ValueError, match="empty vertex"):
        IncidenceStructure(1, 3, [()])
    with pytest.raises(ValueError, match="alpha"):
        IncidenceStructure(0, 3, [(0, 1)])


def reference_vertices(n, vertices):
    """The constructor's per-record loop, kept as a reference."""
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
    return tuple(normalized)


def _make(kind, data):
    if kind == "range":
        return range(*data)
    if kind == "generator":
        return (x for x in data)
    return {"tuple": tuple, "list": list, "set": set}[kind](data)


@st.composite
def vertex_inputs(draw):
    """n plus a recipe for a vertex sequence: mostly rising tuples of ids in
    range, with records of every container kind inserted among them that
    may be unsorted, repeat ids, hold negative or out-of-range ids, or be
    empty; the sequence itself is a list, a tuple or a generator."""
    n = draw(st.integers(0, 8))
    records = []
    if n:
        rising = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        records = [("tuple", sorted(ids)) for ids in draw(st.lists(rising, max_size=8))]
    messy = st.tuples(
        st.sampled_from(("tuple", "list", "set", "generator")), st.lists(st.integers(-2, n + 1), max_size=6)
    )
    ranges = st.tuples(
        st.just("range"), st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1), st.sampled_from((1, 2, -1)))
    )
    for extra in draw(st.lists(st.one_of(messy, ranges), max_size=draw(st.sampled_from((0, 1, 3))))):
        records.insert(draw(st.integers(0, len(records))), extra)
    return n, draw(st.sampled_from(("list", "tuple", "generator"))), records


def _built(outer, records):
    built = [_make(kind, data) for kind, data in records]
    return {"list": list, "tuple": tuple, "generator": iter}[outer](built)


def _construction(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400)
@given(vertex_inputs())
def test_constructor_matches_reference_loop(case):
    n, outer, records = case
    current = _construction(lambda: IncidenceStructure(1, n, _built(outer, records)).vertices)
    assert current == _construction(lambda: reference_vertices(n, _built(outer, records)))


@pytest.mark.parametrize(
    "vertices",
    [[(False, True)], [(0, 1.5)], [(0.5, 1)], [(0, 1), ("a", "b")], [(0, "a")], [(0, 2), (1, 1)], [(1, 2), (0, 3)]],
)
def test_constructor_matches_reference_loop_on_odd_ids(vertices):
    current = _construction(lambda: IncidenceStructure(1, 3, vertices).vertices)
    assert current == _construction(lambda: reference_vertices(3, vertices))


def test_constructor_keeps_normal_tuple():
    vertices = ((0, 1), (0, 2), (1, 2))
    assert IncidenceStructure(1, 3, vertices).vertices is vertices


def test_violations_are_slotted():
    violation = PairMultiplicity((0, 1), 2)
    assert not hasattr(violation, "__dict__")
    assert repr(violation) == "PairMultiplicity(pair=(0, 1), observed=2)"
    assert violation == PairMultiplicity((0, 1), 2) and hash(violation) == hash(PairMultiplicity((0, 1), 2))


def test_pencil_is_valid():
    s = IncidenceStructure(1, 5, [range(5)])
    report = validate(s)
    assert report.valid
    assert report.violations == ()


def test_pair_covered_twice_is_reported():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    report = validate(s)
    assert not report.valid
    assert PairMultiplicity((0, 1), 2) in report.violations


def test_missing_pair_is_reported():
    s = IncidenceStructure(1, 3, [(0, 1), (1, 2)])
    report = validate(s)
    assert PairMultiplicity((0, 2), 0) in report.violations


def test_duplicate_vertex_reported():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 2), (1, 2), (0, 1)])
    report = validate(s)
    assert DuplicateVertex((0, 3)) in report.violations


def test_small_vertex_reported():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 2), (1, 2), (1,)])
    report = validate(s)
    assert SmallVertex(3) in report.violations


def test_unused_curve_and_disconnection_reported():
    s = IncidenceStructure(1, 4, [(0, 1), (0, 2), (1, 2)])
    report = validate(s)
    assert UnusedCurve(3) in report.violations
    assert any(isinstance(v, Disconnected) for v in report.violations)


def test_disconnected_components_counted():
    # Two triangles sharing no curve: every cross pair is uncovered too.
    vertices = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    s = IncidenceStructure(1, 6, vertices)
    report = validate(s)
    assert Disconnected(2) in report.violations


def test_validate_requires_two_curves():
    with pytest.raises(ValueError, match="at least 2"):
        validate(IncidenceStructure(1, 1, [(0,)]))


def test_validate_is_pure():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    assert validate(s) == validate(s)


def test_alpha_two_structure_is_valid():
    # Four curves, four triple points: every pair shares exactly two vertices.
    s = IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert validate(s).valid


def test_stats_simple_cyclic_n4():
    vertices = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    stats = compute_stats(IncidenceStructure(1, 4, vertices))
    assert stats.tk == {2: 6}
    assert stats.r == 3
    assert curve_degrees(IncidenceStructure(1, 4, vertices)) == (3, 3, 3, 3)
    assert stats.ld == {2: 6}


def test_stats_near_pencil_degrees():
    vertices = [tuple(range(5))] + [(i, 5) for i in range(5)]
    s = IncidenceStructure(1, 6, vertices)
    stats = compute_stats(s)
    assert stats.r == 5 == max(curve_degrees(s))
    assert sorted(map(len, s.vertices), reverse=True) == [5, 2, 2, 2, 2, 2]
    assert stats.tk == {2: 5, 5: 1}
    # Pairs inside the pencil see the degree-5 vertex; pairs with the
    # transversal see their own crossing.
    assert stats.ld == {2: 5, 5: 10}


def test_stats_identities_on_fixtures():
    fixtures = [
        IncidenceStructure(1, 5, [range(5)]),
        IncidenceStructure(1, 6, [tuple(range(5))] + [(i, 5) for i in range(5)]),
        IncidenceStructure(1, 7, [(i, j) for i in range(7) for j in range(i + 1, 7)]),
        IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    ]
    for s in fixtures:
        stats = compute_stats(s)
        assert sum(count * math.comb(k, 2) for k, count in stats.tk.items()) == s.alpha * math.comb(s.n, 2)
        assert stats.ld_total() == math.comb(s.n, 2)
        assert stats.r == max(curve_degrees(s))


def test_compute_stats_rejects_invalid():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    with pytest.raises(InvalidStructureError) as exc_info:
        compute_stats(s)
    assert not exc_info.value.report.valid


def test_ld_takes_minimum_common_vertex_degree():
    # Pair (0,1) meets at the big vertex only; pair (0,4) at a crossing.
    vertices = [tuple(range(4))] + [(i, 4) for i in range(4)]
    stats = compute_stats(IncidenceStructure(1, 5, vertices))
    assert stats.ld == {2: 4, 4: 6}


def test_canonical_sorts_vertices():
    s = IncidenceStructure(1, 3, [(1, 2), (0, 1), (0, 2)])
    assert canonical(s).vertices == ((0, 1), (0, 2), (1, 2))
    assert parse_structure(serialize_structure(s)) == canonical(s)


def test_report_is_kept_and_stays_out_of_equality():
    a = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    b = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    report = validate(a)
    assert validate(a) is report
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert validate(b) == report


def test_compute_stats_rejects_invalid_on_every_call():
    s = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    for _ in range(3):
        with pytest.raises(InvalidStructureError) as exc_info:
            compute_stats(s)
        assert exc_info.value.report is validate(s)
        assert str(exc_info.value) == "invalid incidence structure: PairMultiplicity x1"


def _pair_min_ld(s):
    """l_d by brute force: the minimum degree over each pair's vertices."""
    pair_min = {}
    for vertex in s.vertices:
        for pair in combinations(vertex, 2):
            pair_min[pair] = min(pair_min.get(pair, len(vertex)), len(vertex))
    return dict(sorted(Counter(pair_min.values()).items()))


def test_alpha_one_closed_form_matches_pair_minimum():
    structures = [
        expand(family_wedge(1)).structure,
        expand(family_wedge(2)).structure,
        structure_from_lines(pg2(7), range(57)),
        structure_from_lines(pg2(5), (0, 3, 4, 9, 17, 30)),
        IncidenceStructure(1, 6, [tuple(range(5))] + [(i, 5) for i in range(5)]),
        IncidenceStructure(1, 5, [range(5)]),
    ]
    for s in structures:
        assert compute_stats(s).ld == _pair_min_ld(s)


def seed_validate(s):
    """The original validation algorithm, kept as a reference: a Counter of
    curve pairs probed for all C(n, 2) pairs, then a breadth-first search."""
    if s.n < 2:
        raise ValueError(f"validation requires at least 2 curves, got {s.n}")
    violations = []
    for index, vertex in enumerate(s.vertices):
        if len(vertex) < 2:
            violations.append(SmallVertex(index))
    seen = {}
    for index, vertex in enumerate(s.vertices):
        if vertex in seen:
            violations.append(DuplicateVertex((seen[vertex], index)))
        else:
            seen[vertex] = index
    used = set()
    for vertex in s.vertices:
        used.update(vertex)
    for cid in range(s.n):
        if cid not in used:
            violations.append(UnusedCurve(cid))
    pair_counts = Counter()
    for vertex in s.vertices:
        for pair in combinations(vertex, 2):
            pair_counts[pair] += 1
    for i in range(s.n):
        for j in range(i + 1, s.n):
            observed = pair_counts.get((i, j), 0)
            if observed != s.alpha:
                violations.append(PairMultiplicity((i, j), observed))
    total = s.n + len(s.vertices)
    adjacency = [[] for _ in range(total)]
    for vi, vertex in enumerate(s.vertices):
        for cid in vertex:
            adjacency[cid].append(s.n + vi)
            adjacency[s.n + vi].append(cid)
    marked = [False] * total
    components = 0
    for start in range(total):
        if marked[start]:
            continue
        components += 1
        marked[start] = True
        queue = deque([start])
        while queue:
            for other in adjacency[queue.popleft()]:
                if not marked[other]:
                    marked[other] = True
                    queue.append(other)
    if components > 1:
        violations.append(Disconnected(components))
    return ValidationReport(valid=not violations, violations=tuple(violations))


@st.composite
def messy_structures(draw):
    """Structures with n <= 12 and alpha in {1, 2, 3}: blocks of all
    k-subsets on disjoint curve ranges (valid, repeated, disconnected, or
    leaving curves unused), plus random vertices of any size >= 1, with one
    vertex possibly dropped, in shuffled order.  alpha often matches the
    first block's pair multiplicity, so many rows and some inputs pass."""
    n = draw(st.integers(min_value=2, max_value=12))
    alpha = draw(st.sampled_from((1, 2, 3)))
    vertices = []
    lo = 0
    while lo < n and draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=n - lo))
        k = draw(st.integers(min_value=min(2, size), max_value=size))
        if math.comb(size, k) > 60:
            k = size
        copies = draw(st.integers(1, 2))
        vertices += list(combinations(range(lo, lo + size), k)) * copies
        multiplicity = copies * math.comb(size - 2, k - 2) if size >= 2 else 0
        if lo == 0 and multiplicity in (1, 2, 3) and draw(st.booleans()):
            alpha = multiplicity
        lo += size
    vertex = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    vertices += draw(st.lists(vertex, max_size=draw(st.sampled_from((0, 1, 6)))))
    if vertices and draw(st.booleans()):
        vertices.pop(draw(st.integers(0, len(vertices) - 1)))
    return IncidenceStructure(alpha, n, draw(st.permutations(vertices)))


EXAMPLES = 20  # violations listed per kind


def bounded(report):
    """A full report cut down as validate reports it: the exact count of
    each kind, in the order the kinds first appear, and only the first
    EXAMPLES violations of each kind."""
    counts = Counter()
    examples = []
    for violation in report.violations:
        kind = type(violation).__name__
        counts[kind] += 1
        if counts[kind] <= EXAMPLES:
            examples.append(violation)
    return ValidationReport(valid=report.valid, violations=tuple(examples), counts=dict(counts))


def assert_bounded_seed_report(report, s):
    expected = bounded(seed_validate(s))
    assert report == expected
    assert list(report.counts) == list(expected.counts)


@settings(derandomize=True, max_examples=400)
@given(messy_structures())
# More than EXAMPLES violations of every kind: size-1 records, repeated
# records, unused curves, uncovered pairs and disconnection.
@example(IncidenceStructure(1, 30, [(i,) for i in range(30)]))
@example(IncidenceStructure(1, 4, [(0, 1, 2, 3)] * 25))
@example(IncidenceStructure(2, 40, [(0, 1), (0, 1)]))
@example(IncidenceStructure(1, 12, []))
@example(IncidenceStructure(3, 12, []))
@example(IncidenceStructure(1, 50, [(i,) for i in range(25)] * 2))
# Three used components and three unused curves: six in all.
@example(IncidenceStructure(1, 10, [(5, 6), (0, 1), (4, 6), (2, 3)]))
def test_validate_matches_seed_algorithm(s):
    assert_bounded_seed_report(validate(s), s)


def test_long_report_counts_exactly():
    s = IncidenceStructure(1, 1000, [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = validate(s)
    assert report.counts == {"UnusedCurve": 995, "PairMultiplicity": 499496, "Disconnected": 1}
    assert list(report.counts) == ["UnusedCurve", "PairMultiplicity", "Disconnected"]
    assert report.violations == (
        *(UnusedCurve(cid) for cid in range(5, 25)),
        *(PairMultiplicity((0, j), 0) for j in range(2, 22)),
        Disconnected(996),
    )
    with pytest.raises(InvalidStructureError) as exc_info:
        compute_stats(s)
    assert str(exc_info.value) == (
        "invalid incidence structure: Disconnected x1, PairMultiplicity x499496, UnusedCurve x995"
    )


@pytest.mark.parametrize(
    "s",
    [
        IncidenceStructure(1, 6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
        IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        IncidenceStructure(3, 5, list(combinations(range(5), 3))),
        IncidenceStructure(2, 5, [(0, 1), (0, 1), (2, 3, 4), (2, 3, 4)]),
        IncidenceStructure(1, 5, [(0, 1, 2), (3,), (0, 1, 2)]),
        structure_from_lines(pg2(3), range(13)),
        # Row 0 holds n - 1 other ids but misses curve 3.
        IncidenceStructure(1, 4, [(0, 1, 2), (0, 1), (1, 3), (2, 3)]),
        # Every pair is right, but curve 3 also lies on a record of its own.
        IncidenceStructure(1, 7, structure_from_lines(pg2(2), range(7)).vertices + ((3,),)),
    ],
)
def test_validate_matches_seed_algorithm_on_fixtures(s):
    assert_bounded_seed_report(validate(s), s)


@settings(derandomize=True, max_examples=400)
@given(messy_structures())
def test_validate_with_identity_rotation_matches_seed_algorithm(s):
    """The identity is an automorphism of every structure, and each curve is
    its own orbit, so the orbit argument with every curve as a
    representative is validate's own pass over every row: on a copy built
    through trusted with no report, validate runs it and matches the seed
    algorithm."""
    trusted = IncidenceStructure.trusted(s.alpha, s.n, s.vertices)
    assert trusted._report is None
    assert_bounded_seed_report(validate(trusted), s)


def orbit_rows(s, representatives):
    """The records on each representative curve, in record order."""
    return [[v for v in s.vertices if cid in v] for cid in representatives]


def _cyclic(n, vertices):
    """A structure on Z_n closed under i -> i + 1, whose one curve orbit
    curve 0 meets, with [0] as its representatives."""
    records = {tuple(sorted((cid + shift) % n for cid in v)) for v in vertices for shift in range(n)}
    return IncidenceStructure(1, n, sorted(records)), [0]


@pytest.mark.parametrize(
    "n, base",
    [
        (7, [(0, 1, 3)]),  # the Fano plane as a cyclic difference set
        (13, [(0, 1, 3, 9)]),  # PG(2, 3)
        (6, [(0, 1), (0, 2), (0, 3)]),  # every pair
        (6, [(0, 1), (0, 2)]),  # pairs at distance 3 missing
        (7, [(0, 1, 3), (0, 1)]),  # pairs at distance 1 twice
        (8, [(0, 4), (0, 1)]),  # some pairs missing, one orbit of size 4
        (7, [(0, 1, 2)]),  # each row holds n - 1 other ids, meeting two curves twice
        (5, [(0,)]),  # small vertices only
        (7, [(0, 1, 3), (0,)]),  # the Fano plane plus a small vertex per curve
    ],
)
def test_validate_with_cyclic_rotation_matches_seed_algorithm(n, base):
    """validate matches the seed algorithm on structures closed under
    i -> i + 1, and its verdict is the orbit argument's that the wedge
    quotient rests on: every record holds two or more ids and the row of
    curve 0, whose orbit is every curve, meets every other curve once."""
    s, representatives = _cyclic(n, base)
    report = validate(IncidenceStructure.trusted(s.alpha, s.n, s.vertices))
    assert_bounded_seed_report(report, s)
    rows = orbit_rows(s, representatives)
    assert report.valid == (min(map(len, s.vertices)) >= 2 and all(meets_each_once(row, n) for row in rows))


def test_orbit_shortcut_reads_one_row_per_cycle(monkeypatch):
    """The expansion's rotation quotient reads, of family j = 1's 25 rows,
    one per rotation cycle but the line at infinity's (mirrors 0 and 1 and
    each beam's first copy), each equal to that curve's row in the built
    records, and hands validate a proven report without the full pass."""
    rows = []

    def counted(records, n):
        rows.append(sorted(tuple(sorted(record)) for record in records))
        return meets_each_once(records, n)

    monkeypatch.setattr("acckit.structure._full_report", None)
    monkeypatch.setattr("acckit.wedge.meets_each_once", counted)
    s = expand(family_wedge(1)).structure
    assert validate(s) == ValidationReport(valid=True, violations=())
    assert rows == orbit_rows(s, [0, 1, 8, 16])


def test_trusted_constructor_keeps_records():
    vertices = [(0, 1), (0, 2), (1, 2)]
    s = IncidenceStructure.trusted(1, 3, vertices)
    assert s.vertices == tuple(vertices)
    assert s == IncidenceStructure(1, 3, vertices)
    assert validate(s).valid


def with_pencil(s):
    """s plus a full record of all its curves, with alpha one higher."""
    return IncidenceStructure(s.alpha + 1, s.n, s.vertices + (tuple(range(s.n)),))


def plane(p):
    return structure_from_lines(pg2(p), range(p * p + p + 1))


# The 2-(7, 4, 2) design: complements of the Fano plane's lines.
BIPLANE = IncidenceStructure(2, 7, [tuple(sorted(set(range(7)) - {(a + s) % 7 for a in (0, 1, 3)})) for s in range(7)])
# Every pair of 4 curves twice: the pair counts of alpha = 2 with every record repeated.
DOUBLED = IncidenceStructure(2, 4, list(combinations(range(4), 2)) * 2)


def _broken_line(s):
    """s with the lowest id dropped from its first record of three or more ids."""
    records = [list(v) for v in s.vertices]
    next(v for v in records if len(v) >= 3).pop(0)
    return IncidenceStructure(s.alpha, s.n, records)


def _pencil_missing(s, cid):
    """s plus a pencil of every curve but cid, with alpha one higher."""
    return IncidenceStructure(s.alpha + 1, s.n, s.vertices + (tuple(c for c in range(s.n) if c != cid),))


@pytest.mark.parametrize(
    "s",
    [
        *(with_pencil(plane(p)) for p in (2, 3, 5, 7)),
        # alpha = 3 with a full record: d = 2, so every row is counted.
        with_pencil(BIPLANE),
        with_pencil(IncidenceStructure(2, 4, combinations(range(4), 3))),
        # alpha = 3 over records of degrees 2, 3 and 6.
        with_pencil(IncidenceStructure(2, 7, plane(2).vertices + gen_near_pencil(7).vertices)),
        # Invalid: two pencils (alpha 2, and alpha 3 where every pair holds).
        IncidenceStructure(2, 13, plane(3).vertices + (tuple(range(13)),) * 2),
        IncidenceStructure(3, 13, plane(3).vertices + (tuple(range(13)),) * 2),
        _pencil_missing(plane(3), 5),
        _pencil_missing(plane(2), 0),
        _broken_line(with_pencil(plane(3))),
        _broken_line(with_pencil(BIPLANE)),
        IncidenceStructure(2, 13, with_pencil(plane(3)).vertices + ((4,),)),
        # alpha = 3: the rest meets every pair twice, but repeats each record.
        with_pencil(DOUBLED),
        with_pencil(IncidenceStructure(2, 7, plane(2).vertices * 2)),
        # alpha = 3 over a pencil and a plane, a rest valid only for alpha = 1.
        IncidenceStructure(3, 13, with_pencil(plane(3)).vertices),
        # alpha = 2: a pencil over a rest that repeats a line.
        IncidenceStructure(2, 7, with_pencil(plane(2)).vertices + plane(2).vertices[:1]),
        # Two pencils: every pair is right at alpha = 2, but the records repeat.
        IncidenceStructure(2, 5, [range(5)] * 2),
    ],
)
def test_full_record_shortcut_matches_seed_algorithm(s):
    assert_bounded_seed_report(validate(s), s)


def refuse_counted_rows(monkeypatch):
    """Make validate fail if it counts any row's pairs with a Counter."""

    def refuse(*args):
        raise AssertionError("a row was counted")

    monkeypatch.setattr("acckit.structure.Counter", refuse)


@pytest.mark.parametrize("s", [with_pencil(plane(p)) for p in (2, 3, 5, 7)])
def test_full_record_shortcut_skips_full_pass(monkeypatch, s):
    """Each row is decided by the records other than the pencil, so no
    row's pairs are counted."""
    refuse_counted_rows(monkeypatch)
    assert validate(s) == ValidationReport(valid=True, violations=())


@pytest.mark.parametrize("n", [5, 200])
def test_pencil_rows_without_other_records_are_not_counted(monkeypatch, n):
    """A pencil plus the record 0 1 at alpha = 1: F = 1 and d = 0, so only
    rows 0 and 1 hold another record; each is counted once to find its
    wrong pairs and once to list them."""
    s = IncidenceStructure(1, n, [range(n), (0, 1)])
    rows = []
    real_counter = acckit.structure.Counter

    def counted(ids):
        row = real_counter(ids)
        rows.append(row)
        return row

    monkeypatch.setattr("acckit.structure.Counter", counted)
    report = validate(s)
    assert len(rows) == 4
    assert_bounded_seed_report(report, s)


REMAINDERS = (
    plane(2),
    plane(3),
    gen_simple_cyclic(5),
    gen_near_pencil(6),
    IncidenceStructure(2, 4, combinations(range(4), 3)),
    BIPLANE,
    IncidenceStructure(3, 5, combinations(range(5), 3)),
    DOUBLED,
)


@st.composite
def full_record_structures(draw):
    """A full record over a remainder valid for alpha - 1 (or, for DOUBLED,
    with its pair counts but repeated records), then up to two perturbations:
    a record dropped, repeated or added at random, an id dropped from or
    added to a record, or alpha moved by one.  Curves are relabelled and
    records shuffled."""
    base = draw(st.sampled_from(REMAINDERS))
    n, alpha = base.n, base.alpha + 1
    records = [set(v) for v in base.vertices] + [set(range(n))]
    for change in draw(st.lists(st.sampled_from(("drop", "repeat", "add", "shrink", "grow", "alpha")), max_size=2)):
        index = draw(st.integers(0, len(records) - 1))
        if change == "drop" and len(records) > 1:
            records.pop(index)
        elif change == "repeat":
            records.append(set(records[index]))
        elif change == "add":
            records.append(set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
        elif change == "shrink" and len(records[index]) > 1:
            records[index].discard(draw(st.sampled_from(sorted(records[index]))))
        elif change == "grow":
            records[index].add(draw(st.integers(0, n - 1)))
        elif change == "alpha":
            alpha = max(1, alpha + draw(st.sampled_from((-1, 1))))
    label = draw(st.permutations(range(n)))
    return IncidenceStructure(alpha, n, draw(st.permutations([[label[cid] for cid in v] for v in records])))


@settings(derandomize=True, max_examples=400)
@given(full_record_structures())
def test_full_record_structures_match_seed_algorithm(s):
    assert_bounded_seed_report(validate(s), s)


def family_acc(j):
    """Family j read back from its .acc text, so no representatives come with it."""
    return parse_structure(serialize_structure(expand(family_wedge(j)).structure))


@pytest.mark.parametrize(
    "s",
    [
        *(family_acc(j) for j in (1, 2, 3, 4)),
        *(plane(p) for p in (2, 3, 5, 7)),
        gen_simple_cyclic(9),
        gen_near_pencil(9),
        gen_pencil(9),
        IncidenceStructure(1, 2, [(0, 1)]),
    ],
)
def test_valid_alpha_one_structures_skip_full_pass(monkeypatch, s):
    """With no representatives every row is checked by the row test, and a
    pencil is valid by the closed form, so no row's pairs are counted."""
    refuse_counted_rows(monkeypatch)
    assert validate(s) == ValidationReport(valid=True, violations=())


def _merged(records):
    """records with the first two merged into one."""
    return [tuple(sorted(set(records[0]) | set(records[1])))] + records[2:]


def _changed_family(j, change):
    s = family_acc(j)
    return IncidenceStructure(1, s.n, change(list(s.vertices)))


@pytest.mark.parametrize(
    "s",
    [
        *(_changed_family(j, change) for j in (1, 2) for change in (list, lambda r: r[1:], lambda r: r + r[:1], _merged)),
        with_pencil(plane(3)),
        _broken_line(with_pencil(plane(3))),
        with_pencil(DOUBLED),
        IncidenceStructure(1, 9, [range(9), (0, 1)]),
    ],
    ids=[
        *(f"{change}-{j}" for j in (1, 2) for change in ("kept", "dropped", "duplicated", "merged")),
        "pencil+plane",
        "pencil+broken-plane",
        "pencil+doubled",
        "pencil+pair",
    ],
)
def test_validate_indexes_the_records_once(monkeypatch, s):
    """Without representatives, validate builds one curve -> records index,
    whether the structure is valid or not: a dropped, repeated or merged
    record, a broken line or a repeated record beside a pencil is reported
    from the same pass that decides the valid rows."""
    # A fresh copy, since a shared parameter may keep another test's report.
    s = IncidenceStructure(s.alpha, s.n, s.vertices)
    calls = []
    index = acckit.structure._records_by_curve

    def counted(vertices):
        calls.append(1)
        return index(vertices)

    monkeypatch.setattr("acckit.structure._records_by_curve", counted)
    report = validate(s)
    assert len(calls) == 1
    assert_bounded_seed_report(report, s)


def _off_broken_line(s):
    """_broken_line(s) with a curve that is on neither the broken record nor
    the record it came from, whose row alone passes the row test."""
    broken = _broken_line(s)
    changed = set(chain.from_iterable(set(s.vertices) ^ set(broken.vertices)))
    return broken, [min(set(range(s.n)) - changed)]


@pytest.mark.parametrize(
    "s, representatives",
    [
        (with_pencil(plane(3)), [0]),
        _off_broken_line(with_pencil(plane(3))),
        _off_broken_line(with_pencil(BIPLANE)),
        (BIPLANE, range(7)),
        (with_pencil(DOUBLED), [0]),
        (IncidenceStructure(2, 5, [range(5)] * 2), range(5)),
        # Row 0 meets every other curve once, as alpha = 1 would ask.
        (IncidenceStructure(2, 7, _cyclic(7, [(0, 1, 3)])[0].vertices), [0]),
    ],
)
def test_representatives_are_ignored_above_alpha_one(s, representatives):
    """The orbit argument decides validity at alpha = 1 only.  At any
    other alpha validate gives the seed algorithm's report, and rows that
    pass the alpha = 1 row test (row 0 of the cyclic Fano plane declared
    alpha = 2 does) prove the structure invalid: their curve meets every
    other curve once, not alpha times."""
    report = validate(IncidenceStructure.trusted(s.alpha, s.n, s.vertices))
    assert report == validate(IncidenceStructure(s.alpha, s.n, s.vertices))
    assert_bounded_seed_report(report, s)
    if any(meets_each_once(row, s.n) for row in orbit_rows(s, representatives)):
        assert not report.valid


@st.composite
def pencil_structures(draw):
    """A pencil of n <= 12 curves at alpha = 1 plus up to two random
    records of any size, relabelled and shuffled."""
    n = draw(st.integers(min_value=2, max_value=12))
    extra = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    records = [range(n), *draw(st.lists(extra, max_size=2))]
    label = draw(st.permutations(range(n)))
    return IncidenceStructure(1, n, draw(st.permutations([[label[cid] for cid in v] for v in records])))


@settings(derandomize=True, max_examples=400)
@given(pencil_structures())
@example(IncidenceStructure(1, 5, [range(5), (0, 1)]))
@example(IncidenceStructure(1, 5, [range(5), range(5)]))
@example(IncidenceStructure(1, 5, [range(5), (3,)]))
def test_pencil_structures_match_seed_algorithm(s):
    assert_bounded_seed_report(validate(s), s)
