"""Round trips and error reporting for the .acc and .wedge text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acckit import (
    IncidenceStructure,
    ParseError,
    family_wedge,
    parse_structure,
    parse_wedge,
    serialize_structure,
    serialize_wedge,
)

TRIANGLE = "acc 1\nalpha 1\nlines 3\nv 0 1\nv 0 2\nv 1 2\n"


def test_parse_triangle():
    s = parse_structure(TRIANGLE)
    assert s.alpha == 1
    assert s.n == 3
    assert s.vertices == ((0, 1), (0, 2), (1, 2))


def test_serialize_parse_round_trip_is_canonical():
    assert serialize_structure(parse_structure(TRIANGLE)) == TRIANGLE


def test_parse_serialize_identity_up_to_vertex_order():
    shuffled = "acc 1\nalpha 1\nlines 3\nv 1 2\nv 0 1\nv 0 2\n"
    assert serialize_structure(parse_structure(shuffled)) == TRIANGLE


def test_serialize_is_stable():
    s = parse_structure(TRIANGLE)
    assert serialize_structure(s) == serialize_structure(s)


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\nacc 1\nalpha 1\n# another\nlines 3\nv 0 1\nv 0 2\nv 1 2\n"
    assert parse_structure(text).n == 3


def test_duplicate_id_in_vertex_reports_line():
    text = "acc 1\nalpha 1\nlines 3\nv 0 1\nv 0 0 1\n"
    with pytest.raises(ParseError) as exc_info:
        parse_structure(text)
    assert exc_info.value.line == 5
    assert "duplicate id" in exc_info.value.cause


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "empty input"),
        ("acc 2\nalpha 1\nlines 2\n", 1, "bad header"),
        ("nonsense\n", 1, "bad header"),
        ("acc 1\nalpha x\nlines 2\n", 2, "bad alpha"),
        ("acc 1\nalpha 0\nlines 2\n", 2, "alpha must be >= 1"),
        ("acc 1\nlines 2\n", 2, "expected 'alpha"),
        ("acc 1\n", 1, "expected 'alpha"),
        ("acc 1\nalpha 1\n", 2, "expected 'lines"),
        ("# header\nacc 1\n\n# multiplicity\nalpha 1\n\n", 5, "expected 'lines"),
        ("acc 1\nalpha 1\nlines 2\nv 0\n", 4, "at least 2"),
        ("acc 1\nalpha 1\nlines 2\nv 1 0\n", 4, "strictly increasing"),
        ("acc 1\nalpha 1\nlines 2\nv 0 2\n", 4, "out of range"),
        ("acc 1\nalpha 1\nlines 2\nw 0 1\n", 4, "expected vertex line"),
        ("acc 1\nalpha 1\nlines 2\nv 0 q\n", 4, "bad curve id"),
    ],
)
def test_acc_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_structure(text)
    assert exc_info.value.line == line
    assert fragment in str(exc_info.value)


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=1, max_value=10))
    vertices = []
    seen = set()
    for _ in range(count):
        size = draw(st.integers(min_value=2, max_value=n))
        ids = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
        if ids not in seen:
            seen.add(ids)
            vertices.append(ids)
    return IncidenceStructure(draw(st.integers(1, 3)), n, vertices)


@settings(derandomize=True, max_examples=60)
@given(structures())
def test_round_trip_any_structure(s):
    text = serialize_structure(s)
    back = parse_structure(text)
    assert back.canonical() == s.canonical()
    assert serialize_structure(back) == text


def test_wedge_round_trip():
    spec = family_wedge(1)
    text = serialize_wedge(spec)
    assert text == "wedge 1\nm 8\nbeam red T2 B3 T3 B4\nbeam blue T1 B1 T2 B2\n"
    assert parse_wedge(text) == spec


def test_wedge_round_trip_larger():
    for j in (2, 3, 5):
        spec = family_wedge(j)
        assert parse_wedge(serialize_wedge(spec)) == spec


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("wedge 2\nm 4\n", "bad header"),
        ("wedge 1\n", "expected 'm"),
        ("wedge 1\nk 4\n", "expected 'm"),
        ("wedge 1\nm x\n", "bad dihedral order"),
        ("wedge 1\nm 1\n", "dihedral order must be >= 2"),
        ("wedge 1\nm 4\nbeam\n", "beam needs a name"),
        ("wedge 1\nm 4\nbeam a X1\n", "bad bounce token"),
        ("wedge 1\nm 4\nbeam a T0\n", "rank must be >= 1"),
        ("wedge 1\nm 4\nbeam a B1 T1\n", "top edge"),
        ("wedge 1\nm 4\nbeam a T1 T2\n", "alternate"),
        ("wedge 1\nm 4\nbeam a T1 B1 T1\n", "repeats"),
        ("wedge 1\nm 4\nbeam a T1\nbeam a T2\n", "unique"),
        ("wedge 1\nm 4\nx\n", "expected beam line"),
    ],
)
def test_wedge_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_wedge(text)
    assert fragment in str(exc_info.value)


def test_wedge_comments_allowed():
    text = "# family base\nwedge 1\nm 8\nbeam red T2 B3 T3 B4\nbeam blue T1 B1 T2 B2\n"
    assert parse_wedge(text) == family_wedge(1)


def reference_serialize(s):
    """The writer before ids were named once each, kept as a reference."""
    out = ["acc 1", f"alpha {s.alpha}", f"lines {s.n}"]
    for vertex in sorted(s.vertices):
        out.append("v " + " ".join(str(cid) for cid in vertex))
    return "\n".join(out) + "\n"


@st.composite
def wide_structures(draw):
    """Any records the constructor accepts, over n up to 2000 so that ids
    have one to four digits, including size-1 records and no records."""
    n = draw(st.integers(min_value=0, max_value=2000))
    records = st.sets(st.integers(0, n - 1), min_size=1, max_size=6)
    vertices = draw(st.lists(records, max_size=12)) if n else []
    return IncidenceStructure(draw(st.integers(1, 3)), n, vertices)


@settings(derandomize=True, max_examples=300)
@given(wide_structures())
def test_serialize_matches_reference_writer(s):
    assert serialize_structure(s) == reference_serialize(s)


def test_serialize_names_only_the_ids_in_use():
    s = IncidenceStructure(1, 10**12, [(0, 999_999_999_999), (1, 2)])
    assert serialize_structure(s) == reference_serialize(s)
    assert serialize_structure(IncidenceStructure(2, 10**12, [])) == "acc 1\nalpha 2\nlines 1000000000000\n"
