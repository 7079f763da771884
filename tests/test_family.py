"""Family generator tests: the closed-form bounce ranks against the
insertion-based construction and the searches that derive it, the
induction, and the fixture generators."""

import math
import resource
from collections import Counter
from itertools import permutations

import pytest

from acckit import (
    BeamCopy,
    BeamSpec,
    BounceEvent,
    ExpansionError,
    LineAtInfinity,
    Mirror,
    WedgeSpec,
    compute_stats,
    expand,
    family_wedge,
    gen_near_pencil,
    gen_pencil,
    gen_simple_cyclic,
    serialize_wedge,
    validate,
)
from acckit.wedge import BOTTOM, TOP
from conftest import run_capped
from test_structure import curve_degrees


def reference_family_counts(k):
    """Curve count and maximum curve degree of the earlier known dihedral
    family at parameter k: 6k+7 curves, none on more than 3k+2 vertices for
    even k (3k+3 for odd k).

    Recorded for comparison only; that family's wedge is known just
    pictorially, so there is no generator for it.  The family built by
    family_wedge caps the degree lower, at (4n-10)/9 instead of roughly n/2.
    """
    if k < 0:
        raise ValueError(f"parameter must be >= 0, got {k}")
    curves = 6 * k + 7
    max_degree = 3 * k + 2 if k % 2 == 0 else 3 * k + 3
    return curves, max_degree


def family_point_order(j):
    """Bounce-point keys on the top and bottom edge, farthest first, read
    from family_wedge(j).

    Keys: ("r", i) is red bounce i, ("b", i) blue bounce i; a point both
    beams bounce at carries its red key.
    """
    red, blue = family_wedge(j).beams
    points = {}
    for prefix, beam in (("b", blue), ("r", red)):
        for i, event in enumerate(beam.events, 1):
            points[event.key] = (prefix, i)
    top = [points[key] for key in sorted(points) if key[0] == TOP]
    bottom = [points[key] for key in sorted(points) if key[0] == BOTTOM]
    return top, bottom


def per_class_max_degrees(arr):
    """Maximum curve degree per symmetry class of an expanded arrangement.

    Mirrors split by index parity, which for even dihedral order separates
    the two mirror symmetry classes (even mirrors carry the bottom-edge
    images, odd mirrors the top-edge images).
    """
    maxima = {}
    for label, degree in zip(arr.line_labels, curve_degrees(arr.structure)):
        if isinstance(label, Mirror):
            key = "mirror-even" if label.index % 2 == 0 else "mirror-odd"
        elif isinstance(label, LineAtInfinity):
            key = "infinity"
        elif isinstance(label, BeamCopy):
            key = label.beam
        maxima[key] = max(maxima.get(key, -1), degree)
    return maxima


def test_family_j1_shape():
    spec = family_wedge(1)
    assert spec.m == 8
    assert len(spec.beams) == 2
    red, blue = spec.beams
    assert (red.name, blue.name) == ("red", "blue")
    assert len(red.events) == len(blue.events) == 4
    # Every third blue bounce coincides with a red bounce: blue bounce 3
    # shares red bounce 1's point.
    assert blue.events[2].key == red.events[0].key


def test_family_j2_shape():
    spec = family_wedge(2)
    assert spec.m == 14
    red, blue = spec.beams
    assert len(red.events) == len(blue.events) == 7
    assert blue.events[2].key == red.events[0].key
    assert blue.events[5].key == red.events[1].key


def test_family_j3_coincidences():
    spec = family_wedge(3)
    red, blue = spec.beams
    for i in (1, 2, 3):
        assert blue.events[3 * i - 1].key == red.events[i - 1].key


def test_family_wedge_serialization_frozen():
    assert serialize_wedge(family_wedge(1)) == (
        "wedge 1\nm 8\nbeam red T2 B3 T3 B4\nbeam blue T1 B1 T2 B2\n"
    )


def test_family_expansion_bytes_frozen():
    # Canonical expansion output is pinned; integer-only content, so these
    # hashes are platform independent.
    import hashlib

    from acckit import serialize_structure

    expected = {
        1: "2045abd95e8b76d57e04281b753b1aac66641446e96c3a319aa54abf1f9eb7dc",
        2: "0c928a348192ae0233571ed0c5fb0f45a8a135b356ef6fa809d25b6f7555bc8e",
    }
    for j, digest in expected.items():
        text = serialize_structure(expand(family_wedge(j)).structure)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_family_rejects_bad_index():
    with pytest.raises(ValueError):
        family_wedge(0)
    with pytest.raises(ValueError):
        family_point_order(-1)


def _wedge_from_order(top, bottom, j):
    rank = {key: pos + 1 for pos, key in enumerate(top)}
    rank.update({key: pos + 1 for pos, key in enumerate(bottom)})
    t = 3 * j + 1

    def side(i):
        return "T" if i % 2 == 1 else "B"

    def blue_key(i):
        return ("r", i // 3) if (i % 3 == 0 and i // 3 <= j) else ("b", i)

    red = [BounceEvent(side(i), rank[("r", i)]) for i in range(1, t + 1)]
    blue = [BounceEvent(side(i), rank[blue_key(i)]) for i in range(1, t + 1)]
    return WedgeSpec(6 * j + 2, (BeamSpec("red", red), BeamSpec("blue", blue)))


def reference_point_order(j):
    """The family's bounce-point order as first built: the j=1 base found by
    search, then per step three new red points toward the apex and the two
    new blue points inserted together just before red bounce i+1."""
    top = [("b", 1), ("r", 1), ("r", 3)]
    bottom = [("b", 2), ("b", 4), ("r", 2), ("r", 4)]
    for i in range(2, j + 1):
        for idx in (3 * i - 1, 3 * i, 3 * i + 1):
            (top if idx % 2 else bottom).append(("r", idx))
        lst = top if (3 * i + 1) % 2 else bottom
        slot = lst.index(("r", i + 1))
        lst[slot:slot] = [("b", 3 * i - 1), ("b", 3 * i + 1)]
    return top, bottom


def test_closed_form_matches_insertion_reference():
    for j in range(1, 201):
        order = reference_point_order(j)
        assert family_point_order(j) == order
        assert family_wedge(j) == _wedge_from_order(*order, j)


def test_base_order_is_unique_among_all_interleavings():
    """Re-derive the j=1 bounce order by exhaustive search.

    Of the 144 candidate rank interleavings, exactly one expands to a valid
    arrangement at all, and it is the closed form's order: this test keeps
    the formula honest.
    """
    winners = []
    for top in permutations([("b", 1), ("r", 1), ("r", 3)]):
        for bottom in permutations([("b", 2), ("b", 4), ("r", 2), ("r", 4)]):
            try:
                arr = expand(_wedge_from_order(top, bottom, 1))
            except ExpansionError:
                continue
            stats = compute_stats(arr.structure)
            if arr.structure.n == 25 and stats.r == 10 and arr.apex_degree() == 8:
                winners.append((top, bottom))
    assert winners == [
        ((("b", 1), ("r", 1), ("r", 3)), (("b", 2), ("b", 4), ("r", 2), ("r", 4)))
    ]
    assert winners[0] == tuple(map(tuple, family_point_order(1)))


def test_blue_extension_slot_is_unique_at_j2():
    """Re-derive the induction's blue placement by exhaustive search.

    With the j=1 order fixed, try every insertion slot for the two new blue
    bounce points of the j=2 wedge; only one choice expands to a valid
    arrangement of 43 curves with maximum degree 18, and it is the closed
    form's.
    """
    base_top = [("b", 1), ("r", 1), ("r", 3), ("r", 5), ("r", 7)]
    bottom = [("b", 2), ("b", 4), ("r", 2), ("r", 4), ("r", 6)]
    winners = []
    for p5 in range(len(base_top) + 1):
        with_b5 = base_top[:p5] + [("b", 5)] + base_top[p5:]
        for p7 in range(len(with_b5) + 1):
            top = with_b5[:p7] + [("b", 7)] + with_b5[p7:]
            try:
                arr = expand(_wedge_from_order(top, bottom, 2))
            except ExpansionError:
                continue
            stats = compute_stats(arr.structure)
            if arr.structure.n == 43 and stats.r == 18:
                winners.append(tuple(top))
    assert winners == [tuple(family_point_order(2)[0])]


def family_census(j):
    """Family j's records counted by label kind and degree, from the point
    counts in family.py's docstring, with m = 6j + 2: j shared bounces
    (5 ids), 4j single-beam bounces (3 ids) and 2 terminal bounces (2 ids),
    m records each; j crossing pairs, 2m records each; m/2 ideal points of
    degree 6 and m/2 of degree 2; and the apex."""
    m = 6 * j + 2
    shared, single, terminal, crossing_pairs = j, 4 * j, 2, j
    return {
        ("Apex", m): 1,
        ("Bounce", 5): shared * m,
        ("Bounce", 3): single * m,
        ("Bounce", 2): terminal * m,
        ("Crossing", 2): crossing_pairs * 2 * m,
        ("Ideal", 6): m // 2,
        ("Ideal", 2): m // 2,
    }


def census_tk(j):
    tk = Counter()
    for (_, degree), count in family_census(j).items():
        tk[degree] += count
    return dict(sorted(tk.items()))


@pytest.mark.parametrize("j", [1, 2, 3])
def test_family_census_closed_forms(j):
    """Each census count is a polynomial of degree <= 2 in j, and so are the
    closed forms, the vertex count and sum_d t_d C(d, 2); two such
    polynomials that agree at three values of j are equal, so these checks
    prove the identities for every j."""
    m = 6 * j + 2
    tk = census_tk(j)
    assert tk == {2: 12 * j**2 + 19 * j + 5, 3: 24 * j**2 + 8 * j, 5: 6 * j**2 + 2 * j, 6: 3 * j + 1, m: 1}
    assert sum(tk.values()) == 42 * j**2 + 32 * j + 7
    assert sum(count * math.comb(d, 2) for d, count in tk.items()) == math.comb(18 * j + 7, 2)


@pytest.mark.parametrize("j", [*range(1, 17), 32, 64])
def test_family_sweep_exact_counts(j):
    arr = expand(family_wedge(j))
    s = arr.structure
    stats = compute_stats(s)
    n = s.n
    assert n == 18 * j + 7
    assert stats.r == 8 * j + 2
    assert 9 * stats.r == 4 * n - 10
    assert arr.apex_degree() == 6 * j + 2
    assert 3 * arr.apex_degree() == n - 1
    assert len(s.vertices) == 42 * j**2 + 32 * j + 7
    assert stats.r in curve_degrees(s)  # attained, not just bounded
    kinds = Counter((type(label).__name__, len(v)) for label, v in zip(arr.vertex_labels, s.vertices))
    assert kinds == family_census(j)
    assert stats.tk == census_tk(j)
    assert stats.ld == {d: count * math.comb(d, 2) for d, count in census_tk(j).items()}


def test_largest_family_stats_and_pairs_under_the_cap():
    """j = 372 is the largest family the default budget admits: 5,824,039
    vertices.  stats and audit pairs read its .wedge on the rotation
    quotient, so each exits 0 under the 1 GiB cap with the census in closed
    form, using far less child CPU than the 15.1 s stats took when it built
    every record.  Never run this input without the cap."""
    j = 372
    wedge = serialize_wedge(family_wedge(j))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    stats = run_capped(["stats", "-", "--format", "machine"], wedge)
    pairs = run_capped(["audit", "pairs", "-"], wedge)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    for result in (stats, pairs):
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
    lines = stats.stdout.splitlines()
    assert f"STAT vertices {42 * j**2 + 32 * j + 7}" in lines
    assert "STAT r 2978" in lines and 8 * j + 2 == 2978
    assert [line for line in lines if line.startswith("TK ")] == [f"TK {k} {count}" for k, count in census_tk(j).items()]
    pairs_total = math.comb(18 * j + 7, 2)
    assert pairs.stdout == f"CHECK pairs holds {pairs_total}/{pairs_total}\n"
    child_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert child_s < 5.0


@pytest.mark.parametrize("j", range(1, 9))
def test_family_identities(j):
    s = expand(family_wedge(j)).structure
    stats = compute_stats(s)
    assert sum(count * math.comb(k, 2) for k, count in stats.tk.items()) == math.comb(s.n, 2)
    assert stats.ld_total() == math.comb(s.n, 2)


def test_induction_ledger_deltas():
    """Per-class maximum degrees across consecutive family members.

    The beam classes always attain the arrangement maximum and grow by
    exactly 8 per step (6 new bounces plus 2 new crossings for each class);
    the two mirror classes gain 8 and 2 in alternation, and the line at
    infinity gains 6.
    """
    maxima = {}
    for j in range(1, 9):
        arr = expand(family_wedge(j))
        maxima[j] = per_class_max_degrees(arr)
    for j in range(2, 9):
        prev, here = maxima[j - 1], maxima[j]
        assert here["red"] - prev["red"] == 8
        assert here["blue"] - prev["blue"] == 8
        assert here["red"] == here["blue"] == 8 * j + 2
        worst_prev = max(prev.values())
        worst_here = max(here.values())
        assert worst_here - worst_prev == 8
        mirror_deltas = sorted(
            (
                here["mirror-even"] - prev["mirror-even"],
                here["mirror-odd"] - prev["mirror-odd"],
            )
        )
        assert mirror_deltas == [2, 8]
        assert here["infinity"] - prev["infinity"] == 6


def test_gen_pencil():
    s = gen_pencil(4)
    assert len(s.vertices) == 1
    stats = compute_stats(s)
    assert stats.r == 1
    assert validate(s).valid


def test_gen_near_pencil():
    s = gen_near_pencil(6)
    stats = compute_stats(s)
    assert stats.r == 5
    assert sorted(map(len, s.vertices), reverse=True) == [5, 2, 2, 2, 2, 2]
    assert stats.tk == {2: 5, 5: 1}


def test_gen_simple_cyclic():
    s = gen_simple_cyclic(5)
    stats = compute_stats(s)
    assert stats.tk == {2: 10}
    assert stats.r == 4


@pytest.mark.parametrize("gen", [gen_pencil, gen_near_pencil, gen_simple_cyclic])
def test_generators_reject_small_n(gen):
    with pytest.raises(ValueError):
        gen(2)


@pytest.mark.parametrize("gen", [gen_pencil, gen_near_pencil, gen_simple_cyclic])
@pytest.mark.parametrize("n", [3, 7, 20])
def test_generator_outputs_validate(gen, n):
    assert validate(gen(n)).valid


def test_reference_family_counts():
    assert reference_family_counts(4) == (31, 14)
    assert reference_family_counts(0) == (7, 2)
    assert reference_family_counts(1) == (13, 6)
    with pytest.raises(ValueError):
        reference_family_counts(-1)


def test_family_beats_reference_degree_ratio():
    # At comparable curve counts the kaleidoscope family's cap (4n-10)/9
    # sits strictly below the reference family's roughly n/2.
    for j in range(1, 9):
        n = 18 * j + 7
        k = (n - 7) // 6
        ref_curves, ref_degree = reference_family_counts(k)
        assert ref_curves == n
        assert 8 * j + 2 < ref_degree
