"""Line arrangements in the projective plane over a prime field.

Points and lines are homogeneous triples over the p-element field with the
last nonzero coordinate scaled to 1, listed in lexicographic order.  A point
lies on a line when their dot product vanishes mod p.  Selecting any set of
lines and intersecting them pairwise yields an incidence structure in which
every pair of curves meets exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .limits import check_size
from .structure import IncidenceStructure

Triple = tuple[int, int, int]


class NotPrime(ValueError):
    def __init__(self, p: int):
        super().__init__(f"p must be prime, got {p}")


class DuplicateLineId(ValueError):
    def __init__(self, line_id: int):
        super().__init__(f"duplicate line id {line_id}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ProjectivePlane:
    """PG(2, p): p^2+p+1 points and as many lines, in canonical order."""

    p: int
    points: tuple[Triple, ...]
    lines: tuple[Triple, ...]


def pg2(p: int) -> ProjectivePlane:
    """The projective plane over the p-element field, p prime.

    Its p^2+p+1 points are sized first, so a p whose plane exceeds the size
    budget is refused with SizeLimitExceeded before any primality test."""
    check_size(f"PG(2, {p})", p * p + p + 1, "points")
    if not _is_prime(p):
        raise NotPrime(p)
    triples = sorted(
        [(x, y, 1) for x in range(p) for y in range(p)]
        + [(x, 1, 0) for x in range(p)]
        + [(1, 0, 0)]
    )
    reps = tuple(triples)
    return ProjectivePlane(p=p, points=reps, lines=reps)


def structure_from_lines(plane: ProjectivePlane, line_ids) -> IncidenceStructure:
    """Incidence structure of the chosen lines: vertices are the plane
    points lying on at least two of them.  Curve i is line_ids[i]."""
    ids = list(line_ids)
    seen: set[int] = set()
    for line_id in ids:
        if line_id in seen:
            raise DuplicateLineId(line_id)
        seen.add(line_id)
    for line_id in ids:
        if not (0 <= line_id < len(plane.lines)):
            raise ValueError(f"line id {line_id} out of range 0..{len(plane.lines) - 1}")
    if len(ids) < 2:
        raise ValueError(f"need at least 2 distinct lines, got {len(ids)}")

    index = {point: i for i, point in enumerate(plane.points)}
    members: list[list[int]] = [[] for _ in plane.points]
    for curve, line_id in enumerate(ids):
        for point in _points_on(plane.lines[line_id], plane.p):
            members[index[point]].append(curve)
    vertices = [tuple(curves) for curves in members if len(curves) >= 2]
    return IncidenceStructure(1, len(ids), vertices)


def _points_on(line: Triple, p: int):
    """The p+1 normalized points on a line, by solving a*x + b*y + c*z = 0."""
    a, b, c = line
    if b:
        inv = pow(b, -1, p)
        for x in range(p):
            yield (x, -(a * x + c) * inv % p, 1)
    elif a:
        x = -c * pow(a, -1, p) % p
        for y in range(p):
            yield (x, y, 1)
    if a:
        yield (-b * pow(a, -1, p) % p, 1, 0)
    else:
        if not b:
            yield from ((x, 1, 0) for x in range(p))
        yield (1, 0, 0)


def splitmix64(seed: int):
    """The splitmix64 generator: state advances by 0x9E3779B97F4A7C15 and
    each output is finalized with two xor-shift multiplies.

    Used for reproducible line sampling; the recurrence is fixed so sampled
    subsets never change across versions or platforms.
    """
    mask = (1 << 64) - 1
    state = seed & mask

    def next_value() -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    return next_value


def sample_lines(plane: ProjectivePlane, n: int, seed: int) -> tuple[int, ...]:
    """Deterministic pseudo-random selection of n distinct line ids.

    A partial Fisher-Yates shuffle driven by splitmix64(seed): at step i the
    generator's next value modulo (count - i) picks the element swapped into
    position i.  The chosen ids are returned sorted.
    """
    count = len(plane.lines)
    if not (0 <= n <= count):
        raise ValueError(f"cannot sample {n} of {count} lines")
    rng = splitmix64(seed)
    ids = list(range(count))
    for i in range(n):
        j = i + rng() % (count - i)
        ids[i], ids[j] = ids[j], ids[i]
    return tuple(sorted(ids[:n]))
