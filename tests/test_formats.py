"""Round trips and error reporting for the .acc and .wedge text formats."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acckit import (
    IncidenceStructure,
    ParseError,
    expand,
    family_wedge,
    parse_structure,
    parse_wedge,
    serialize_structure,
    serialize_wedge,
)
from acckit import formats
from acckit.formats import _header_int, _parse_int, _significant_lines, sniff_format
from test_structure import canonical

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
    assert back == canonical(s)
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


def reference_parse_structure(text):
    """The .acc parser as it was before it built through the trusted
    constructor: the same line-by-line checks, then the checked constructor."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "empty input, expected 'acc 1' header")
    number, header = lines[0]
    if header != "acc 1":
        raise ParseError(number, f"bad header {header!r}, expected 'acc 1'")
    number, alpha = _header_int(lines, 1, "alpha", "alpha")
    if alpha < 1:
        raise ParseError(number, f"alpha must be >= 1, got {alpha}")
    number, n = _header_int(lines, 2, "lines", "line count")
    if n < 0:
        raise ParseError(number, f"line count must be >= 0, got {n}")
    vertices = []
    for number, line in lines[3:]:
        tokens = line.split()
        if tokens[0] != "v":
            raise ParseError(number, f"expected vertex line 'v <id> ...', got {line!r}")
        ids = [_parse_int(tok, number, "curve id") for tok in tokens[1:]]
        if len(ids) < 2:
            raise ParseError(number, "vertex must contain at least 2 curve ids")
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ParseError(number, f"duplicate id {a} within vertex")
            if a > b:
                raise ParseError(number, "vertex ids must be strictly increasing")
        if ids[0] < 0 or ids[-1] >= n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ParseError(number, f"curve id {bad} out of range 0..{n - 1}")
        vertices.append(tuple(ids))
    return IncidenceStructure(alpha, n, vertices)


SPELLINGS = {
    "zero": lambda tok: "0" + tok,
    "plus": lambda tok: "+" + tok,
    "underscore": lambda tok: tok[0] + "_" + tok[1:] if len(tok) > 1 else "0_" + tok,
    "arabic": lambda tok: "".join(chr(0x660 + int(c)) for c in tok),
}
SEPARATORS = ["\t", "\x0c", "\u2028", "  ", " \x0c", "\u2028 "]


@st.composite
def acc_texts(draw):
    """.acc text that is mostly well formed: rising records over 0..n-1,
    with now and then a bad header, alpha or count, a comment, a blank or
    CRLF line, an out-of-range, repeated, unsorted or non-integer id, a
    record of fewer than 2 ids, or a line that is not a record.

    Half the texts have no comment, blank or decorated line, so that many
    reach the bulk reader, and both halves draw faults aimed at it: an id
    or header value spelled '05', '+5', '1_0' or in Arabic-Indic digits, a
    tab, form feed, line separator or double space between or beside ids,
    a trailing space, a 'v' token inside a row, comment or blank lines
    before the header, and no final newline."""
    tidy = draw(st.booleans())
    n = draw(st.integers(2, 12))
    header = ["acc 1", f"alpha {draw(st.integers(1, 3))}", f"lines {n}"]
    fault = draw(st.sampled_from([None] * 12 + ["alpha", "count", "short", "header", "spelling", "preamble"]))
    if fault == "alpha":
        header[1] = f"alpha {draw(st.sampled_from([0, -1, 'a']))}"
    elif fault == "count":
        header[2] = f"lines {draw(st.sampled_from([-1, 0, 1, 'x']))}"
    elif fault == "short":
        header = header[:2]
    elif fault == "header":
        header[0] = "acc 2"
    elif fault == "spelling":
        index = draw(st.sampled_from([1, 2]))
        key, value = header[index].split(" ")
        header[index] = f"{key} {SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](value)}"
    elif fault == "preamble":
        header[0] = draw(st.sampled_from(["", "# note", "  "])) + "\n" + header[0]
    records = []
    for _ in range(draw(st.integers(0, 8))):
        ids = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=4)))
        fault = draw(
            st.sampled_from(
                [None] * 50
                + ["range", "repeat", "order", "token", "short", "word"]
                + ["spelling", "separator", "trailing", "inner v"]
            )
        )
        if fault == "range":
            ids[draw(st.sampled_from([0, -1]))] = draw(st.sampled_from([-1, n, n + 5]))
        elif fault == "repeat":
            ids.insert(1, ids[0])
        elif fault == "order":
            ids.reverse()
        tokens = list(map(str, ids))
        if fault == "token":
            tokens[-1] = draw(st.sampled_from(["x", "1.5", "--2", "0x1"]))
        elif fault == "short":
            tokens = tokens[:1]
        elif fault == "spelling":
            index = draw(st.integers(0, len(tokens) - 1))
            tokens[index] = SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](tokens[index])
        elif fault == "inner v":
            tokens.insert(draw(st.integers(0, len(tokens))), "v")
        gaps = [" "] * len(tokens)
        if fault == "separator":
            gaps[draw(st.integers(0, len(gaps) - 1))] = draw(st.sampled_from(SEPARATORS))
        line = ("w" if fault == "word" else "v") + "".join(gap + token for gap, token in zip(gaps, tokens))
        records.append(line + (" " if fault == "trailing" else ""))
    lines = []
    for line in header + records:
        if not tidy:
            lines.extend(draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1)))
            line += draw(st.sampled_from(["", "", "", "\r", "  "]))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["\n"] * (3 if tidy else 1) + [""]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, exc.cause


CANONICAL = "acc 1\nalpha 1\nlines 3\nv 0 1\nv 0 2\n"


@settings(derandomize=True, max_examples=400)
@given(acc_texts())
@example(CANONICAL + "v 1 3\n")
@example(CANONICAL + "v -1 2\n")
@example(CANONICAL + "v 1 x\n")
@example(CANONICAL + "v 2 1\n")
@example(CANONICAL + "v 1 1\n")
@example(CANONICAL + "v 1\n")
@example(CANONICAL + "v 1 02\n")
@example(CANONICAL + "v 1 2 \n")
@example(CANONICAL + "v 1 2")
@example(CANONICAL + "v 1\t2\n")
@example(CANONICAL + "v 1\u20282\n")
@example(CANONICAL + "v 1\u2028 2\n")
@example(CANONICAL + "v 1 \u0662\n")
@example(CANONICAL + "w 1 2\n")
@example(CANONICAL + "v 1 v 2\n")
@example("acc 1\nalpha 1\nlines 03\nv 0 1\n")
@example("acc 1\nalpha 1\nlines 3\n")
@example("acc 1\nalpha 1\nlines 3\n\n")
def test_parse_matches_checked_constructor(text):
    """Every text that parses gives the structure the checked constructor
    gives, and every other text the same ParseError line and message."""
    outcome = _parse_outcome(parse_structure, text)
    assert outcome == _parse_outcome(reference_parse_structure, text)
    if isinstance(outcome, IncidenceStructure):
        assert all(type(vertex) is tuple and set(map(type, vertex)) == {int} for vertex in outcome.vertices)


def test_canonical_parse_shares_one_int_per_id():
    """Family j = 16 has n = 295 curves, so ids past 256, which CPython
    does not cache on its own, are each one shared object too."""
    text = serialize_structure(expand(family_wedge(16)).structure)
    s = parse_structure(text)
    assert len({id(cid) for vertex in s.vertices for cid in vertex}) == s.n == 295


def test_canonical_parse_skips_the_line_reader(monkeypatch):
    calls = []
    real = formats._significant_lines
    monkeypatch.setattr(formats, "_significant_lines", lambda text: calls.append(text) or real(text))
    text = serialize_structure(expand(family_wedge(4)).structure)
    assert serialize_structure(parse_structure(text)) == text
    assert calls == []
    parse_structure(text.replace("\n", "\r\n"))
    assert len(calls) == 1


def reference_sniff(text):
    """sniff_format as it was: the first significant line of the whole text."""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            return "wedge" if line.startswith("wedge") else "acc"
    return "acc"


@st.composite
def sniff_texts(draw):
    """Lines and line breaks of every kind splitlines knows, with long
    comments and blanks that put a line end near the 4096- and 8192-char
    prefix ends, so that a prefix may cut a line or a CRLF in two."""
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    lines = st.one_of(
        st.sampled_from(["", "  ", "\t", "# note", "#wedge", "wedge 1", " wedge", "acc 1", "v 0 1", "w"]),
        st.integers(4085, 4100).map(lambda k: "#" + "x" * k),
        st.integers(4085, 4100).map(lambda k: " " * k),
        st.integers(8180, 8200).map(lambda k: "#" + " " * k),
    )
    parts = draw(st.lists(st.tuples(lines, breaks), max_size=5))
    return "".join(line + end for line, end in parts) + draw(lines)


@settings(derandomize=True, max_examples=300)
@given(sniff_texts())
@example("#" + "x" * 4094 + "\r\nwedge 1\n")
@example(" " * 4095 + "wedge 1\n")
@example("#" * 5000)
@example("")
def test_sniff_format_matches_full_split(text):
    assert sniff_format(text) == reference_sniff(text)
