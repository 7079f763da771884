"""Expansion machinery tests: reflection walk, closure, crossings, labels."""

import hashlib
from collections import Counter
from itertools import chain, combinations
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acckit.wedge
from acckit import (
    Apex,
    BeamCopy,
    BeamSpec,
    Bounce,
    BounceEvent,
    Crossing,
    ExpandedArrangement,
    ExpansionError,
    Ideal,
    IncidenceStructure,
    LineAtInfinity,
    Mirror,
    NonClosingBeam,
    SelfCrossingBeam,
    ValidationFailed,
    WedgeSpec,
    compute_stats,
    expand,
    family_wedge,
    parse_structure,
    serialize_structure,
    validate,
)
from acckit.cli import dispatch
from acckit.structure import strictly_rising
from acckit.wedge import BOTTOM, TOP


def wedge_paths(spec):
    """Every copy's waypoints from the expansion's routes alone, as lists:
    raises the errors found before assembly (NonClosingBeam,
    SizeLimitExceeded, SelfCrossingBeam) and never validates the assembled
    structure, so it also reaches wedges whose expansion is invalid."""
    return [(name, copy, list(waypoints)) for name, copy, waypoints in ExpandedArrangement(spec).paths]


def test_bounce_event_validation():
    with pytest.raises(ValueError):
        BounceEvent("X", 1)
    with pytest.raises(ValueError):
        BounceEvent("T", 0)


def test_beam_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        BeamSpec("a", [])
    with pytest.raises(ValueError, match="top edge"):
        BeamSpec("a", [BounceEvent("B", 1)])
    with pytest.raises(ValueError, match="alternate"):
        BeamSpec("a", [BounceEvent("T", 1), BounceEvent("T", 2)])
    with pytest.raises(ValueError, match="repeats"):
        BeamSpec("a", [BounceEvent("T", 1), BounceEvent("B", 1), BounceEvent("T", 1)])
    with pytest.raises(ValueError, match="name"):
        BeamSpec("two words", [BounceEvent("T", 1)])


def test_wedge_spec_validation():
    with pytest.raises(ValueError, match=">= 2"):
        WedgeSpec(1)
    beam = BeamSpec("a", [BounceEvent("T", 1)])
    with pytest.raises(ValueError, match="unique"):
        WedgeSpec(4, (beam, beam))


def test_minimal_kaleidoscope():
    arr = expand(WedgeSpec(2))
    s = arr.structure
    assert s.n == 3
    assert s.vertices == ((0, 1), (0, 2), (1, 2))
    assert arr.line_labels == (Mirror(0), Mirror(1), LineAtInfinity())
    labels = set(arr.vertex_labels)
    assert labels == {Apex(), Ideal(0), Ideal(1)}
    assert validate(s).valid


def test_family_j1_structure():
    arr = expand(family_wedge(1))
    s = arr.structure
    stats = compute_stats(s)
    assert s.n == 25
    assert len(s.vertices) == 81
    assert stats.r == 10
    assert arr.apex_degree() == 8
    assert stats.tk == {2: 36, 3: 32, 5: 8, 6: 4, 8: 1}
    assert stats.ld == {2: 36, 3: 96, 5: 80, 6: 60, 8: 28}


def test_family_j1_labels():
    arr = expand(family_wedge(1))
    line_kinds = Counter(type(label).__name__ for label in arr.line_labels)
    assert line_kinds == {"Mirror": 8, "BeamCopy": 16, "LineAtInfinity": 1}
    copies = Counter(label.beam for label in arr.line_labels if isinstance(label, BeamCopy))
    assert copies == {"red": 8, "blue": 8}

    vertex_kinds = Counter(type(label).__name__ for label in arr.vertex_labels)
    assert vertex_kinds == {"Apex": 1, "Bounce": 56, "Ideal": 8, "Crossing": 16}

    # The apex vertex holds exactly the mirrors.
    apex_index = next(i for i, lab in enumerate(arr.vertex_labels) if isinstance(lab, Apex))
    assert arr.structure.vertices[apex_index] == tuple(range(8))


def test_family_j1_bounce_ray_classes():
    arr = expand(family_wedge(1))
    # Odd rays carry top-edge images (3 ranks), even rays bottom-edge
    # images (4 ranks).
    per_ray = Counter(lab.ray for lab in arr.vertex_labels if isinstance(lab, Bounce))
    for ray, count in per_ray.items():
        assert count == (3 if ray % 2 == 1 else 4)
    assert set(per_ray) == set(range(16))


def test_family_j1_ideal_degrees():
    arr = expand(family_wedge(1))
    s = arr.structure
    for vertex, label in zip(s.vertices, arr.vertex_labels):
        if isinstance(label, Ideal):
            # Beams enter parallel to the bottom edge, so only even mirrors
            # collect closing pseudolines.
            expected = 6 if label.mirror % 2 == 0 else 2
            assert len(vertex) == expected
            assert s.n - 1 in vertex  # the line at infinity
            assert label.mirror in vertex


def test_family_j2_counts():
    arr = expand(family_wedge(2))
    stats = compute_stats(arr.structure)
    assert arr.structure.n == 43
    assert stats.r == 18
    assert arr.apex_degree() == 14


def test_expansion_deterministic():
    a = serialize_structure(expand(family_wedge(2)).structure)
    b = serialize_structure(expand(family_wedge(2)).structure)
    assert a == b


def test_self_crossing_beam_detected():
    beam = BeamSpec(
        "z",
        [BounceEvent("T", 2), BounceEvent("B", 1), BounceEvent("T", 1), BounceEvent("B", 2)],
    )
    with pytest.raises(SelfCrossingBeam):
        expand(WedgeSpec(4, (beam,)))


def test_non_closing_beam_detected():
    # A single bounce closes only when the two entry rays coincide mod m,
    # which fails for odd dihedral order.
    beam = BeamSpec("z", [BounceEvent("T", 1)])
    with pytest.raises(NonClosingBeam):
        expand(WedgeSpec(3, (beam,)))
    # A beam of t bounces closes exactly when m divides 2t, and the first
    # beam in order that does not is reported.  m = 6: a closes (6 | 6),
    # b does not (2t = 4), nor does c (2t = 2).
    a = BeamSpec("a", [BounceEvent("T", 1), BounceEvent("B", 1), BounceEvent("T", 2)])
    b = BeamSpec("b", [BounceEvent("T", 3), BounceEvent("B", 2)])
    with pytest.raises(NonClosingBeam) as caught:
        expand(WedgeSpec(6, (a, b, BeamSpec("c", [BounceEvent("T", 4)]))))
    assert (caught.value.beam, caught.value.mirrors) == ("b", (0, 4))


def test_validation_failure_on_coincident_beams():
    # Two beams with identical bounce sequences produce coincident
    # pseudolines, which cannot have single crossings.
    red = BeamSpec("red", [BounceEvent("T", 1), BounceEvent("B", 1)])
    blue = BeamSpec("blue", [BounceEvent("T", 1), BounceEvent("B", 1)])
    with pytest.raises(ExpansionError):
        expand(WedgeSpec(4, (red, blue)))


def test_beam_copy_count_is_m_per_beam():
    for j in (1, 2, 3):
        spec = family_wedge(j)
        arr = expand(spec)
        copies = Counter(label.beam for label in arr.line_labels if isinstance(label, BeamCopy))
        assert copies == {"red": spec.m, "blue": spec.m}


def test_wedge_paths_shape():
    spec = family_wedge(1)
    paths = tuple(expand(spec).paths)
    assert len(paths) == 16
    for name, copy, waypoints in paths:
        assert waypoints[0][0] == "ideal"
        assert waypoints[-1][0] == "ideal"
        # Entry rays are opposite rays of one mirror line.
        assert waypoints[0][1] % 8 == waypoints[-1][1] % 8
        # One terminating bounce plus twice the other bounces.
        assert len(waypoints) == 2 + 2 * 4 - 1
        assert all(kind == "bounce" for kind, _, _ in waypoints[1:-1])


def test_wedge_paths_bounce_rays_distinct():
    for name, copy, waypoints in expand(family_wedge(1)).paths:
        rays = [ray for kind, ray, _ in waypoints if kind == "bounce"]
        assert len(set(rays)) == len(rays)


@st.composite
def small_wedges(draw, max_m=5, max_beams=2, max_bounces=4):
    m = draw(st.integers(min_value=2, max_value=max_m))
    beam_count = draw(st.integers(min_value=0, max_value=max_beams))
    beams = []
    for bi in range(beam_count):
        length = draw(st.integers(min_value=1, max_value=max_bounces))
        events = []
        used = set()
        for i in range(length):
            side = "T" if i % 2 == 0 else "B"
            rank = draw(st.integers(min_value=1, max_value=max_bounces))
            if (side, rank) in used:
                break
            used.add((side, rank))
            events.append(BounceEvent(side, rank))
        if events:
            beams.append(BeamSpec(f"b{bi}", events))
    return WedgeSpec(m, beams)


@settings(derandomize=True, max_examples=120)
@given(small_wedges())
def test_expansion_never_returns_invalid(spec):
    """Expansion either raises a documented error or yields a valid
    alpha = 1 structure with coherent labels."""
    try:
        arr = expand(spec)
    except ExpansionError:
        return
    assert validate(arr.structure).valid
    assert arr.structure.alpha == 1
    mirrors = [lab for lab in arr.line_labels if isinstance(lab, Mirror)]
    assert len(mirrors) == spec.m
    assert sum(isinstance(lab, LineAtInfinity) for lab in arr.line_labels) == 1
    assert len(arr.vertex_labels) == len(arr.structure.vertices)


# sha256 over the canonical .acc, line labels, vertex labels and the paths
# (each copy's waypoints as a list) of family member j, each followed by a
# NUL byte, as produced by the original union-find expansion.
FAMILY_GOLDEN = {
    1: "e030a47c18a0cac4a2c0f6d3771d3e848346e51239b408f7b2af693c82677f27",
    2: "0b80e267540de3a0502f95b167c485f7477cdd106f8b8fad98deb6dfad8ccd3d",
    3: "95cc44bf19ce4b397127b2ac0d5e3b46cae007503d538c70c9d303cd06f78272",
    4: "67c2dd663266e84270d97293bdc3b21f6a306ee43211765894dbe28d1ced1c78",
    5: "ade23ab970ce34ee233291514780a1679ef62f179f008ba6f769c85c01e64a35",
    6: "c48c355a88feb58b9bb3266d604a39e05739c7ac5abe367ddc88327a1084583a",
}


@pytest.mark.parametrize("j", sorted(FAMILY_GOLDEN))
def test_family_expansion_golden(j):
    spec = family_wedge(j)
    arr = expand(spec)
    digest = hashlib.sha256()
    for part in (
        serialize_structure(arr.structure),
        repr(arr.line_labels),
        repr(arr.vertex_labels),
        repr([(name, copy, list(waypoints)) for name, copy, waypoints in arr.paths]),
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == FAMILY_GOLDEN[j]


def test_arrangement_paths_match_wedge_paths():
    spec = family_wedge(2)
    paths = expand(spec).paths
    assert [(name, copy, list(points)) for name, copy, points in paths] == wedge_paths(spec)


def test_structure_is_built_and_validated_on_first_read(monkeypatch):
    """ExpandedArrangement(spec) builds only the routes, so an invalid
    expansion still gives its paths and line labels without validating;
    every read of structure raises the report that expand raises."""
    spec = beams_wedge(4, "T1 B1", "T1 B1")
    with pytest.raises(ValidationFailed) as expanded:
        expand(spec)
    assert sum(expanded.value.report.counts.values()) == 4
    arr = ExpandedArrangement(spec)

    def refuse(s):
        raise AssertionError("validated")

    with monkeypatch.context() as patch:
        patch.setattr(acckit.wedge, "validate", refuse)
        assert tuple(arr.paths) == tuple(ReferenceExpansion(spec).paths)
        copies = [BeamCopy(name, copy) for name in ("b0", "b1") for copy in range(4)]
        assert arr.line_labels == (*map(Mirror, range(4)), *copies, LineAtInfinity())
    for _ in range(2):
        with pytest.raises(ValidationFailed) as read:
            arr.structure
        assert read.value.report == expanded.value.report
        assert str(read.value) == str(expanded.value)


class ReferenceExpansion:
    """The eager expansion, kept as a reference: one walk per beam copy that
    builds every waypoint tuple, a set per vertex record, a Bounce or
    Crossing label per record, and one sort of (ids, label) records."""

    def __init__(self, spec):
        self.spec, self.m, self.nw = spec, spec.m, 2 * spec.m
        nw = self.nw
        self.across = {
            TOP: [(w | 1, w ^ 1) for w in range(nw)],
            BOTTOM: [(w, (w - 1) % nw) if w % 2 == 0 else ((w + 1) % nw, (w + 1) % nw) for w in range(nw)],
        }
        self.walk()
        self.find_crossings()

    def walk(self):
        m, bottom = self.m, self.across[BOTTOM]
        self.curves, self.paths = [], []
        self.ideal_members = [[] for _ in range(m)]
        next_id = m
        for beam in self.spec.beams:
            t = len(beam.events)
            steps = [(self.across[event.side], event.rank) for event in beam.events]
            route = [(s, *steps[s]) for s in range(t)]
            route += [(s, *steps[s - 1]) for s in range(t - 1, 0, -1)]
            curve = [0] * (self.nw * t)
            copy = 0
            for start in range(self.nw):
                if curve[start * t]:
                    continue
                w = start
                waypoints = [("ideal", bottom[start][0], 0)]
                for s, across, rank in route:
                    curve[w * t + s] = next_id
                    ray, w = across[w]
                    waypoints.append(("bounce", ray, rank))
                curve[w * t] = next_id
                waypoints.append(("ideal", bottom[w][0], 0))
                mirror, other = bottom[start][0] % m, bottom[w][0] % m
                if mirror != other:
                    raise NonClosingBeam(beam.name, (min(mirror, other), max(mirror, other)))
                self.ideal_members[mirror].append(next_id)
                self.paths.append((beam.name, copy, tuple(waypoints)))
                next_id += 1
                copy += 1
            self.curves.append(curve)
        self.infinity_id = next_id
        self.n = next_id + 1

    def find_crossings(self):
        ranks = {TOP: set(), BOTTOM: set()}
        for beam in self.spec.beams:
            for event in beam.events:
                ranks[event.side].add(event.rank)
        self.ranks = {side: sorted(found) for side, found in ranks.items()}
        ideal = len(self.ranks[BOTTOM])
        position = {(BOTTOM, rank): ideal - 1 - i for i, rank in enumerate(self.ranks[BOTTOM])}
        position.update(((TOP, rank), ideal + 2 + i) for i, rank in enumerate(self.ranks[TOP]))
        size = len(position) + 2
        chords = []
        for bi, beam in enumerate(self.spec.beams):
            for s in range(len(beam.events)):
                start = ideal if s == 0 else position[beam.events[s - 1].key]
                chords.append((bi, s, start, position[beam.events[s].key]))
        self.crossing_pairs = []
        for (b1, s1, a1, a2), (b2, s2, c1, c2) in combinations(chords, 2):
            if {a1, a2} & {c1, c2}:
                continue
            span, p1, p2 = (a2 - a1) % size, (c1 - a1) % size, (c2 - a1) % size
            if (0 < p1 < span) != (0 < p2 < span):
                if b1 == b2:
                    raise SelfCrossingBeam(self.spec.beams[b1].name, s1, s2)
                self.crossing_pairs.append((b1, s1, b2, s2))

    def records(self):
        """Every (record, label), sorted by record, without validating."""
        m, nw, beams = self.m, self.nw, self.spec.beams
        sizes = [len(beam.events) for beam in beams]
        records = [(tuple(range(m)), Apex())]
        bouncing = {}
        for curve, t, beam in zip(self.curves, sizes, beams):
            for s, event in enumerate(beam.events):
                bouncing.setdefault(event.key, []).append((curve, t, s))
        for ray in range(nw):
            side = TOP if ray % 2 else BOTTOM
            left = (ray - 1) % nw
            for rank in self.ranks[side]:
                copies = {curve[w * t + s] for curve, t, s in bouncing[side, rank] for w in (ray, left)}
                records.append(((ray % m, *sorted(copies)), Bounce(ray, rank)))
        for mi, members in enumerate(self.ideal_members):
            records.append(((mi, *members, self.infinity_id), Ideal(mi)))
        for w in range(nw):
            for b1, s1, b2, s2 in self.crossing_pairs:
                a = self.curves[b1][w * sizes[b1] + s1]
                b = self.curves[b2][w * sizes[b2] + s2]
                records.append((tuple(sorted({a, b})), Crossing(w)))
        records.sort(key=itemgetter(0))
        return records

    def arrangement(self):
        m, records = self.m, self.records()
        line_labels = [Mirror(i) for i in range(m)]
        for beam in self.spec.beams:
            line_labels.extend(BeamCopy(beam.name, copy) for copy in range(m))
        line_labels.append(LineAtInfinity())
        structure = IncidenceStructure(1, self.n, [ids for ids, _ in records])
        report = validate(structure)
        if not report.valid:
            raise ValidationFailed(report)
        vertex_labels = tuple(label for _, label in records)
        apex = next(len(v) for v, label in zip(structure.vertices, vertex_labels) if isinstance(label, Apex))
        return structure, tuple(line_labels), vertex_labels, tuple(self.paths), apex


def _expansion_outcome(build):
    try:
        return build()
    except ExpansionError as exc:
        return type(exc), str(exc), getattr(exc, "report", None)


def _compare_with_reference(spec):
    def current():
        arr = expand(spec)
        return arr.structure, arr.line_labels, arr.vertex_labels, tuple(arr.paths), arr.apex_degree()

    def reference():
        return ReferenceExpansion(spec).arrangement()

    assert _expansion_outcome(current) == _expansion_outcome(reference)
    walked = _expansion_outcome(lambda: [(name, copy, tuple(points)) for name, copy, points in wedge_paths(spec)])
    assert walked == _expansion_outcome(lambda: list(ReferenceExpansion(spec).paths))


@settings(derandomize=True, max_examples=320)
@given(small_wedges())
def test_expansion_matches_reference(spec):
    _compare_with_reference(spec)


def beams_wedge(m, *beams):
    """WedgeSpec of order m with beams b0, b1, ... given as bounce text,
    for example "T1 B1 T2"."""
    events = [[BounceEvent(e[0], int(e[1:])) for e in text.split()] for text in beams]
    return WedgeSpec(m, [BeamSpec(f"b{i}", bounces) for i, bounces in enumerate(events)])


@settings(derandomize=True, max_examples=400)
@given(small_wedges(max_m=9, max_beams=3, max_bounces=9))
# 2t = m: valid expansions with crossing beams, whose copies entering at
# wedges m + 2, ..., 2m - 2 have an odd lower entry.
@example(beams_wedge(10, "T3 B4 T5 B5 T6", "T1 B1 T2 B2 T3"))
@example(beams_wedge(12, "T2 B3 T6 B5 T7 B7", "T1 B1 T2 B2 T3 B3"))
@example(beams_wedge(16, "T3 B4 T5 B5 T7 B6 T8 B9", "T1 B1 T2 B2 T3 B3 T4 B4"))
# 2t = 2m: every copy but the first has an odd lower entry, and each meets
# some mirror twice, so these fail validation; the last two mix both cases.
@example(beams_wedge(10, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5", "T2 B4 T4 B5 T6 B6 T7 B7 T8 B8"))
@example(beams_wedge(13, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7", "T2 B2 T3 B4 T5 B5 T6 B6 T7 B8 T8 B9 T10"))
@example(
    beams_wedge(
        15, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7 B7 T8", "T2 B2 T5 B3 T6 B6 T7 B7 T8 B8 T9 B9 T10 B10 T11"
    )
)
@example(beams_wedge(12, "T1 B1 T2 B2 T3 B3", "T2 B2 T3 B3 T4 B4 T6 B5 T8 B8 T9 B9"))
@example(beams_wedge(16, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7 B7 T8 B8", "T4 B2 T5 B4 T6 B6 T7 B7"))
# Three beams bouncing at T1, where each adds two copies to the record in
# beam order (an invalid expansion), and a valid one where b0's copy meets
# itself at its terminal bounce T2, which b1 shares.
@example(beams_wedge(4, "T1 B1", "T1 B2", "T1 B3"))
@example(beams_wedge(6, "T1 B1 T2", "T2 B2 T3"))
def test_expansion_matches_reference_on_wider_wedges(spec):
    """Wrap-around with t > m, closure decided in beam order, and chords of
    different beams sharing an end; the examples past m = 9 cover both
    closures, 2t = m and 2t = 2m (mod 2m), with crossing beams, and the last
    two bounce points shared by several beams."""
    _compare_with_reference(spec)


@pytest.mark.parametrize("j", range(1, 9))
def test_family_expansion_matches_reference(j):
    _compare_with_reference(family_wedge(j))


def test_expand_and_audit_build_no_bounce_or_crossing_labels(capsys, monkeypatch, tmp_path):
    """The CLI reads only curve ids, so it must not build vertex or line
    labels, though the orbits it reads carry their label functions."""
    path = tmp_path / "j2.wedge"
    assert dispatch(["gen", "family", "--j", "2", "--out", str(path)]) == 0
    commands = (["audit", "pairs", str(path)], ["expand", str(path)])
    expected = []
    for argv in commands:
        assert dispatch(argv) == 0
        expected.append(capsys.readouterr())

    def refuse(*args):
        raise AssertionError("label built")

    for name in ("Apex", "Bounce", "Crossing", "Ideal", "Mirror", "BeamCopy", "LineAtInfinity"):
        monkeypatch.setattr(acckit.wedge, name, refuse)
    for argv, before in zip(commands, expected):
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == before.out
    with pytest.raises(AssertionError, match="label built"):
        expand(family_wedge(2)).vertex_labels
    with pytest.raises(AssertionError, match="label built"):
        expand(family_wedge(2)).line_labels


def reference_rotation(expansion):
    """Curve ids under rotation by two wedge images, as the expansion once
    built them: mirror i goes to mirror i + 2 mod m, each beam's copy
    entering at wedge 2i to the one entering at 2i + 2, and the line at
    infinity, the last curve, stays."""
    m, n = expansion._m, expansion.n
    image = [(i + 2) % m for i in range(m)] + [n - 1] * (n - m)
    for entered in expansion._entered:
        for copy, rotated in zip(entered, entered[1:] + entered[:1]):
            image[copy] = rotated
    return image


def is_automorphism(s, rotation):
    """The explicit check the orbit shortcut relies on: rotation permutes
    the curve ids and maps the multiset of records onto itself."""
    if sorted(rotation) != list(range(s.n)):
        return False
    images = Counter(tuple(sorted(rotation[cid] for cid in vertex)) for vertex in s.vertices)
    return images == Counter(s.vertices)


def cycles(permutation):
    """The cycles of a permutation of 0..n-1, each as a set."""
    found, seen = [], set()
    for start in range(len(permutation)):
        cycle = set()
        cid = start
        while cid not in seen:
            seen.add(cid)
            cycle.add(cid)
            cid = permutation[cid]
        if cycle:
            found.append(cycle)
    return found


def _expand_recording(spec):
    """Expand spec; return the outcome, every (structure, handed report)
    that expansion passed to IncidenceStructure.trusted, and how many full
    validation passes ran."""
    calls, full = [], []
    real_trusted, real_full_report = IncidenceStructure.trusted, acckit.structure._full_report

    def recording(alpha, n, vertices, report=None):
        s = real_trusted(alpha, n, vertices, report)
        calls.append((s, report))
        return s

    def counting(s):
        full.append(s)
        return real_full_report(s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncidenceStructure, "trusted", staticmethod(recording))
        patch.setattr(acckit.structure, "_full_report", counting)
        outcome = _expansion_outcome(lambda: expand(spec).structure)
    return outcome, calls, len(full)


def all_records(arrangement):
    """Every record of an expansion, sorted, built without validating by
    the reference expansion, so not from the orbits under test."""
    return [record for record, _ in ReferenceExpansion(arrangement._spec).records()]


def check_quotient(arrangement, records):
    """The quotient view against the materialised records, on a fresh
    structure (so its report is the full pass's): the reference rotation
    maps the records onto themselves, each of its cycles holds one rotation
    cycle's first curve, the orbits' images under it are the records, each
    such curve's row but the line at infinity's is built and is the one the
    records give, and the verdict equals
    validate's, and when valid, the vertex count and Stats equal the
    materialised ones.  Returns that report."""
    s = IncidenceStructure(1, arrangement.n, records)
    rotation = reference_rotation(arrangement)
    assert is_automorphism(s, rotation)
    starts = [cycle[0] for cycle in arrangement._cycles()]
    assert sorted(min(cycle) for cycle in cycles(rotation)) == starts
    orbits = arrangement.orbits()
    images = Counter()
    for record, length, _ in orbits:
        image = record
        for _ in range(length):
            images[tuple(sorted(image))] += 1
            image = tuple(rotation[cid] for cid in image)
        assert sorted(image) == sorted(record)
    assert images == Counter(records)
    rows = arrangement._rows(orbits)
    # Every cycle start's row but the line at infinity's, the last.
    assert len(rows) == len(starts) - 1
    for start, row in zip(starts, rows):
        assert sorted(tuple(sorted(record)) for record in row) == [record for record in records if start in record]
    report = validate(s)
    assert arrangement.valid == report.valid
    if report.valid:
        assert sum(length for _, length, _ in orbits) == len(records)
        assert arrangement.stats == compute_stats(s)
        assert sum(arrangement.stats.tk.values()) == len(records)
    return report


def _check_orbit_validation(spec):
    """The quotient's verdict, vertex count and Stats against a full pass
    on a fresh copy of the records (check_quotient); expansion hands
    trusted the valid report exactly when the structure is valid, the
    report validate ends with equals the full pass's, the full pass ran
    during expansion exactly when the structure is invalid, and then stats
    raises the ValidationFailed that expansion raises."""
    outcome, calls, full_passes = _expand_recording(spec)
    assert len(calls) <= 1
    for s, handed in calls:
        arrangement = ExpandedArrangement(spec)
        report = check_quotient(arrangement, all_records(arrangement))
        if not report.valid:
            with pytest.raises(ValidationFailed) as failed:
                arrangement.stats
            assert failed.value.report == report
        assert list(s.vertices) == all_records(arrangement)
        assert s._report == report
        assert handed == (report if report.valid else None)
        assert (outcome is s) == report.valid
    assert full_passes == (len(calls) == 1 and calls[0][1] is None)
    return calls


@settings(derandomize=True, max_examples=400)
@given(small_wedges(max_m=9, max_beams=3, max_bounces=9))
# Even m with two crossing beams, one beam at odd m (an invalid expansion)
# and no beam at odd m, then the examples of the wider-wedge reference test.
@example(beams_wedge(10, "T3 B4 T5 B5 T6", "T1 B1 T2 B2 T3"))
@example(beams_wedge(3, "T1 B1 T2"))
@example(WedgeSpec(5))
@example(beams_wedge(12, "T2 B3 T6 B5 T7 B7", "T1 B1 T2 B2 T3 B3"))
@example(beams_wedge(16, "T3 B4 T5 B5 T7 B6 T8 B9", "T1 B1 T2 B2 T3 B3 T4 B4"))
@example(beams_wedge(10, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5", "T2 B4 T4 B5 T6 B6 T7 B7 T8 B8"))
@example(beams_wedge(13, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7", "T2 B2 T3 B4 T5 B5 T6 B6 T7 B8 T8 B9 T10"))
@example(
    beams_wedge(
        15, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7 B7 T8", "T2 B2 T5 B3 T6 B6 T7 B7 T8 B8 T9 B9 T10 B10 T11"
    )
)
@example(beams_wedge(12, "T1 B1 T2 B2 T3 B3", "T2 B2 T3 B3 T4 B4 T6 B5 T8 B8 T9 B9"))
@example(beams_wedge(16, "T1 B1 T2 B2 T3 B3 T4 B4 T5 B5 T6 B6 T7 B7 T8 B8", "T4 B2 T5 B4 T6 B6 T7 B7"))
@example(beams_wedge(4, "T1 B1", "T1 B2", "T1 B3"))
@example(beams_wedge(6, "T1 B1 T2", "T2 B2 T3"))
def test_orbit_validation_matches_full_validation(spec):
    _check_orbit_validation(spec)


@pytest.mark.parametrize("j", [*range(1, 17), 32, 64])
def test_family_orbit_validation_matches_full_validation(j):
    calls = _check_orbit_validation(family_wedge(j))
    assert len(calls) == 1 and calls[0][1] is not None
    # Mirrors 0 and 1, the first copy of each beam and the line at infinity.
    starts = [cycle[0] for cycle in ExpandedArrangement(family_wedge(j))._cycles()]
    assert starts == [0, 1, 6 * j + 2, 12 * j + 4, 18 * j + 6]


def test_quotient_refuses_a_record_of_one_id():
    """Every wedge record holds two or more ids, so only an orbit put in by
    hand reaches the size check: the line at infinity alone, fixed by the
    rotation, leaves every row meeting every other curve once, but the
    full pass reports it as a small vertex.  The quotient reads no label."""
    arrangement = ExpandedArrangement(family_wedge(1))
    orbits = [*arrangement.orbits(), ((arrangement.n - 1,), 1, None)]
    arrangement.orbits = lambda: orbits
    assert all(acckit.structure.meets_each_once(row, arrangement.n) for row in arrangement._rows(orbits))
    report = check_quotient(arrangement, sorted([*all_records(arrangement), (arrangement.n - 1,)]))
    assert report.counts == {"SmallVertex": 1}


def orbit_records(arrangement, orbits):
    """The records the orbits stand for: each representative's images under
    the reference rotation's first powers, up to its orbit's length."""
    rotation = reference_rotation(arrangement)
    records = []
    for record, length, _ in orbits:
        for _ in range(length):
            records.append(tuple(sorted(record)))
            record = tuple(rotation[cid] for cid in record)
    return sorted(records)


def test_quotient_checks_the_rows_when_the_pair_count_holds():
    """A crossing record moved onto another copy of its beam keeps every
    orbit's length and the pair count at C(n, 2), so only the rows find the
    pair now met twice and the one never met, as the full pass does."""
    arrangement = ExpandedArrangement(family_wedge(1))
    orbits = arrangement.orbits()
    # The first crossing record: a red copy, then a blue one.
    i, ((red, blue), length, label) = next((i, orbit) for i, orbit in enumerate(orbits) if orbit[0][0] >= arrangement._m)
    blues = arrangement._entered[1]
    orbits[i] = ((red, blues[1] if blue == blues[0] else blues[0]), length, label)
    arrangement.orbits = lambda: orbits
    report = check_quotient(arrangement, orbit_records(arrangement, orbits))
    assert not report.valid and "PairMultiplicity" in report.counts


def test_pair_count_refuses_before_any_row(monkeypatch):
    """Coincident beams meet pairs twice, which the pair count alone shows."""

    def refuse(self, orbits):
        raise AssertionError("a row was built")

    monkeypatch.setattr(ExpandedArrangement, "_rows", refuse)
    assert not ExpandedArrangement(beams_wedge(4, "T1 B1", "T1 B1")).valid


def test_valid_expansions_skip_the_full_pass():
    for spec in (WedgeSpec(2), *map(family_wedge, (1, 2, 5, 16))):
        assert _expand_recording(spec)[2] == 0
    red = BeamSpec("red", [BounceEvent("T", 1), BounceEvent("B", 1)])
    blue = BeamSpec("blue", [BounceEvent("T", 1), BounceEvent("B", 1)])
    assert _expand_recording(WedgeSpec(4, (red, blue)))[2] == 1


@pytest.mark.parametrize("j", range(1, 7))
def test_trusted_and_checked_constructors_agree(j):
    s = expand(family_wedge(j)).structure
    checked = IncidenceStructure(1, s.n, list(s.vertices))
    assert s == checked
    assert hash(s) == hash(checked)
    assert IncidenceStructure.trusted(1, s.n, iter(s.vertices)) == checked
    assert type(s.vertices) is tuple



def trusted_records(build):
    """Call build(), which may raise an ExpansionError, and return the
    (n, records) of every call it makes to IncidenceStructure.trusted."""
    calls = []
    real_trusted = IncidenceStructure.trusted

    def recording(alpha, n, vertices, report=None):
        vertices = list(vertices)
        calls.append((n, vertices))
        return real_trusted(alpha, n, vertices, report)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncidenceStructure, "trusted", staticmethod(recording))
        _expansion_outcome(build)
    return calls


def assert_trusted_records_hold(calls):
    """What IncidenceStructure.trusted takes on trust: each record a
    strictly rising tuple of two or more int ids within 0..n-1."""
    for n, records in calls:
        assert all(type(record) is tuple and len(record) >= 2 for record in records)
        assert set(map(type, chain.from_iterable(records))) <= {int}
        assert strictly_rising(records)
        assert all(0 <= record[0] and record[-1] < n for record in records)


@pytest.mark.parametrize("j", range(1, 17))
def test_trusted_records_are_rising_in_family(j):
    """The expansion's records and both .acc readers' (the canonical bulk
    pass and, on text with a comment line, the per-line reader)."""
    calls = trusted_records(lambda: expand(family_wedge(j)))
    text = serialize_structure(IncidenceStructure(1, calls[0][0], calls[0][1]))
    calls += trusted_records(lambda: parse_structure(text))
    calls += trusted_records(lambda: parse_structure("# family\n" + text))
    assert len(calls) == 3 and calls[0] == calls[1] == calls[2]
    assert_trusted_records_hold(calls)


@settings(derandomize=True, max_examples=200)
@given(small_wedges(max_m=9, max_beams=3, max_bounces=9))
@example(beams_wedge(4, "T1 B1", "T1 B2", "T1 B3"))
@example(beams_wedge(6, "T1 B1 T2", "T2 B2 T3"))
def test_trusted_records_are_rising_in_expansions(spec):
    assert_trusted_records_hold(trusted_records(lambda: expand(spec)))
