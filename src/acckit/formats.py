"""Text formats: .acc incidence structures and .wedge kaleidoscope specs.

Both formats are UTF-8, newline separated, with '#' starting comment lines.
Canonical .acc output sorts vertices lexicographically and uses single
spaces and a trailing newline, so equal structures serialize to identical
bytes.  Canonical .wedge output keeps beams in input order.

.acc:
    acc 1
    alpha <int>
    lines <int>
    v <id> <id> ...        one line per vertex, ids strictly increasing

.wedge:
    wedge 1
    m <int>
    beam <name> <S><rank> ...   with S in {T, B}, e.g. "beam red T1 B2"
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .structure import IncidenceStructure, strictly_rising

if TYPE_CHECKING:
    from .wedge import WedgeSpec


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, line: int, cause: str):
        self.line = line
        self.cause = cause
        super().__init__(f"line {line}: {cause}")


def _significant_lines(text: str):
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def sniff_format(text: str) -> str:
    """Name the format of text: "wedge" when its first significant line
    starts with 'wedge', otherwise "acc".

    Reads a prefix that doubles until it holds a significant line.  The
    prefix's last line may continue past it, so only the lines before it
    are read, unless the prefix is all of text."""
    size = 4096
    while True:
        lines = text[:size].splitlines()
        if size < len(text):
            lines.pop()
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                return "wedge" if line.startswith("wedge") else "acc"
        if size >= len(text):
            return "acc"
        size *= 2


def parse_structure(text: str) -> IncidenceStructure:
    """Read .acc text.  Canonical text is read in one bulk pass; any other
    spelling, and any fault, goes through the per-line reader, which gives
    the same structure or reports the first fault as a ParseError."""
    alpha, n, vertices = _read_canonical(text) or _read_lines(text)
    return IncidenceStructure.trusted(alpha, n, vertices)


class _Ids(dict):
    """Canonical decimal ids of 0..n-1, each parsed and range-checked once
    and shared as one int object; the reverse of _Names.  Any other token
    raises ValueError."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, token: str) -> int:
        cid = _canonical_int(token)
        if not 0 <= cid < self.n:
            raise ValueError(token)
        self[token] = cid
        return cid


def _read_canonical(text: str):
    """(alpha, n, records) of canonical .acc text, the form serialize_structure
    writes: the three header lines, then one or more 'v <id> ...' rows of
    at least 2 strictly rising canonical ids within 0..n-1, single spaces
    and a final newline.  None for any other text, valid or not."""
    head = text.split("\n", 3)
    if len(head) < 4 or head[0] != "acc 1" or head[1][:6] != "alpha " or head[2][:6] != "lines ":
        return None
    body = head[3]
    try:
        alpha, n = _canonical_int(head[1][6:]), _canonical_int(head[2][6:])
        if alpha < 1 or n < 0 or not body.startswith("v ") or not body.endswith("\n"):
            return None
        get = _Ids(n).__getitem__
        vertices = [tuple(map(get, row.split(" "))) for row in body[2:-1].split("\nv ")]
    except ValueError:
        return None
    if min(map(len, vertices)) < 2 or not strictly_rising(vertices):
        return None
    return alpha, n, vertices


def _canonical_int(token: str) -> int:
    """The int that token spells in canonical decimal; ValueError for any
    other spelling, such as '05', '+5', '1_0' or surrounding space."""
    value = int(token)
    if str(value) != token:
        raise ValueError(token)
    return value


def _read_lines(text: str):
    """(alpha, n, records) of any accepted .acc text, read line by line and
    checked record by record; the first fault raises ParseError."""
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

    vertices: list[tuple[int, ...]] = []
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

    # Every record was checked above: at least 2 int ids, rising, in range.
    return alpha, n, vertices


class _Names(dict):
    """Decimal names of ids, each made once, on first use."""

    def __missing__(self, cid: int) -> str:
        name = self[cid] = str(cid)
        return name


def serialize_structure(s: IncidenceStructure) -> str:
    """Canonical .acc text: vertices sorted lexicographically."""
    names = _Names()
    out = ["acc 1", f"alpha {s.alpha}", f"lines {s.n}"]
    out.extend("v " + " ".join(map(names.__getitem__, vertex)) for vertex in sorted(s.vertices))
    out.append("")
    return "\n".join(out)


def parse_wedge(text: str) -> WedgeSpec:
    # wedge.py is loaded here, not at import, so that reading .acc text
    # runs without it.
    from .wedge import BeamSpec, BounceEvent, WedgeSpec

    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "empty input, expected 'wedge 1' header")

    number, header = lines[0]
    if header != "wedge 1":
        raise ParseError(number, f"bad header {header!r}, expected 'wedge 1'")

    _, m = _header_int(lines, 1, "m", "dihedral order")

    beams: list[BeamSpec] = []
    for number, line in lines[2:]:
        tokens = line.split()
        if tokens[0] != "beam":
            raise ParseError(number, f"expected beam line 'beam <name> ...', got {line!r}")
        if len(tokens) < 3:
            raise ParseError(number, "beam needs a name and at least one bounce")
        name = tokens[1]
        events = []
        for token in tokens[2:]:
            if len(token) < 2 or token[0] not in ("T", "B"):
                raise ParseError(number, f"bad bounce token {token!r}, expected T<rank> or B<rank>")
            rank = _parse_int(token[1:], number, "bounce rank")
            try:
                events.append(BounceEvent(token[0], rank))
            except ValueError as exc:
                raise ParseError(number, str(exc)) from exc
        try:
            beams.append(BeamSpec(name, events))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc

    try:
        return WedgeSpec(m, beams)
    except ValueError as exc:
        raise ParseError(lines[1][0], str(exc)) from exc


def serialize_wedge(spec: WedgeSpec) -> str:
    """Canonical .wedge text: beams in input order, single spaces."""
    out = ["wedge 1", f"m {spec.m}"]
    for beam in spec.beams:
        tokens = " ".join(f"{e.side}{e.rank}" for e in beam.events)
        out.append(f"beam {beam.name} {tokens}")
    return "\n".join(out) + "\n"


def _header_int(lines, index: int, key: str, what: str) -> tuple[int, int]:
    """Parse significant line `index` as '<key> <int>'; return its line
    number and value.  A missing line is reported at the line before it."""
    if len(lines) <= index or not lines[index][1].startswith(key + " "):
        raise ParseError(lines[min(index, len(lines) - 1)][0], f"expected '{key} <int>'")
    number, line = lines[index]
    return number, _parse_int(line.split(" ", 1)[1], number, what)


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"bad {what} {token!r}, expected an integer") from None
