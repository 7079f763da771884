"""Projective plane generation and line sampling tests.

The Fano and PG(2,3) expectations are checked against an independent
brute-force enumeration over nonzero field triples modulo scaling, written
here from scratch rather than reusing the library's canonicalization.
"""

import math
from itertools import product

import pytest

from acckit import (
    DuplicateLineId,
    IncidenceStructure,
    NotPrime,
    compute_stats,
    pg2,
    sample_lines,
    splitmix64,
    structure_from_lines,
    validate,
)


def incident(plane, point, line):
    """A point lies on a line when their dot product vanishes mod p."""
    return (point[0] * line[0] + point[1] * line[1] + point[2] * line[2]) % plane.p == 0


def brute_force_plane(p):
    """All projective points as frozensets of scalar multiples, plus the
    incidence-by-dot-product relation."""
    vectors = [v for v in product(range(p), repeat=3) if any(v)]
    classes = set()
    for v in vectors:
        orbit = frozenset(tuple((s * c) % p for c in v) for s in range(1, p))
        classes.add(orbit)
    points = sorted(classes, key=lambda orbit: sorted(orbit))

    def incident(point_class, line_class):
        pt = next(iter(point_class))
        ln = next(iter(line_class))
        return (pt[0] * ln[0] + pt[1] * ln[1] + pt[2] * ln[2]) % p == 0

    return points, incident


@pytest.mark.parametrize("p, count", [(2, 7), (3, 13), (5, 31), (7, 57)])
def test_point_and_line_counts(p, count):
    plane = pg2(p)
    assert len(plane.points) == count == p * p + p + 1
    assert len(plane.lines) == count


def test_brute_force_class_count_agrees():
    for p in (2, 3, 5):
        points, _ = brute_force_plane(p)
        assert len(points) == p * p + p + 1


def test_fano_structure_matches_brute_force():
    # Independent oracle: degrees computed from the class enumeration.
    points, incident = brute_force_plane(2)
    degree_counts = {}
    for pt in points:
        degree = sum(1 for ln in points if incident(pt, ln))
        degree_counts[degree] = degree_counts.get(degree, 0) + 1
    assert degree_counts == {3: 7}

    plane = pg2(2)
    s = structure_from_lines(plane, range(7))
    assert validate(s).valid
    stats = compute_stats(s)
    assert stats.tk == {3: 7}
    assert stats.r == 3


def test_pg23_full_plane():
    plane = pg2(3)
    s = structure_from_lines(plane, range(13))
    stats = compute_stats(s)
    assert stats.r == 4
    assert stats.tk == {4: 13}
    assert stats.ld_total() == math.comb(13, 2) == 78


@pytest.mark.parametrize("p", [2, 3, 5])
def test_two_lines_meet_exactly_once(p):
    plane = pg2(p)
    for i in range(len(plane.lines)):
        for j in range(i + 1, len(plane.lines)):
            common = sum(
                1
                for pt in plane.points
                if incident(plane, pt, plane.lines[i]) and incident(plane, pt, plane.lines[j])
            )
            assert common == 1


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
def test_composite_rejected(p):
    with pytest.raises(NotPrime):
        pg2(p)


def test_canonical_representatives():
    plane = pg2(5)
    for triple in plane.points:
        last_nonzero = next(c for c in reversed(triple) if c != 0)
        assert last_nonzero == 1
    assert list(plane.points) == sorted(plane.points)
    assert pg2(5) == pg2(5)


def test_concurrent_lines_make_a_pencil():
    plane = pg2(5)
    # Lines through the point (0, 0, 1): dot product zero means z-coefficient 0.
    target = (0, 0, 1)
    ids = [i for i, line in enumerate(plane.lines) if incident(plane, target, line)][:3]
    s = structure_from_lines(plane, ids)
    stats = compute_stats(s)
    assert stats.r == 1
    assert len(s.vertices) == 1


def test_duplicate_line_ids():
    plane = pg2(3)
    with pytest.raises(DuplicateLineId):
        structure_from_lines(plane, [0, 1, 0])


def test_too_few_lines():
    plane = pg2(3)
    with pytest.raises(ValueError, match="at least 2"):
        structure_from_lines(plane, [4])


def test_splitmix_reference_values():
    # First outputs for seed 0, recomputed here from the documented
    # recurrence as an independent check of the implementation.
    mask = (1 << 64) - 1

    def reference(seed, count):
        state = seed & mask
        out = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    rng = splitmix64(0)
    assert [rng() for _ in range(4)] == reference(0, 4)
    rng = splitmix64(123456789)
    assert [rng() for _ in range(4)] == reference(123456789, 4)


def test_sampling_is_deterministic():
    plane = pg2(5)
    assert sample_lines(plane, 6, 1) == sample_lines(plane, 6, 1)
    assert sample_lines(plane, 6, 1) != sample_lines(plane, 6, 2)


def test_sampling_bounds():
    plane = pg2(3)
    assert sample_lines(plane, 13, 7) == tuple(range(13))
    assert sample_lines(plane, 0, 7) == ()
    with pytest.raises(ValueError, match="cannot sample"):
        sample_lines(plane, 14, 7)


def test_sampled_structures_validate():
    plane = pg2(7)
    ids = sample_lines(plane, 7, 42)
    assert len(ids) == 7
    s = structure_from_lines(plane, ids)
    assert validate(s).valid
    assert s.alpha == 1


def point_scan_structure(plane, ids):
    """Reference: test every plane point against every chosen line."""
    chosen = [plane.lines[i] for i in ids]
    vertices = []
    for point in plane.points:
        members = [i for i, line in enumerate(chosen) if incident(plane, point, line)]
        if len(members) >= 2:
            vertices.append(tuple(members))
    return IncidenceStructure(1, len(ids), vertices)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_per_line_enumeration_matches_point_scan(p):
    plane = pg2(p)
    count = len(plane.lines)
    choices = [tuple(range(count)), tuple(reversed(range(count)))]
    for seed in range(4):
        for n in (2, 3, count // 2, count - 1):
            ids = sample_lines(plane, n, seed)
            choices += [ids, ids[::-1]]
    for ids in choices:
        # Equality compares the vertex tuples in order.
        assert structure_from_lines(plane, ids) == point_scan_structure(plane, ids)
