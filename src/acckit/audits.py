"""Exact audits of incidence inequalities and identities, with margins.

Every audit works in exact integer or rational arithmetic and reports the
margin by which an inequality holds or fails.  Nothing here asserts an
asymptotic statement; each check is the finite inequality that appears in
the underlying counting argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .limits import check_size
from .structure import IncidenceStructure, InvalidStructureError, Stats, compute_stats, validate

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class TkBoundEntry:
    """Both vertex-count bounds at one degree k.

    bound1 is alpha*C(n,2)/C(k,2), which every valid structure satisfies
    with t_k <= bound1.  bound2 is 2*alpha*n/k and applies only for
    k >= alpha*ceil(sqrt(2n)); there the strict t_k < bound2 must hold.
    """

    k: int
    tk: int
    bound1: Fraction
    holds1: bool
    margin1: Fraction
    bound2_applicable: bool
    bound2: Fraction
    holds2: bool
    margin2: Fraction | None


@dataclass(frozen=True)
class TkBoundsReport:
    alpha: int
    n: int
    threshold_k: int
    entries: tuple[TkBoundEntry, ...]

    @property
    def part1_holds(self) -> bool:
        return all(e.holds1 for e in self.entries)

    @property
    def part2_holds(self) -> bool:
        return all(e.holds2 for e in self.entries)

    def part1_min_margin(self) -> Fraction:
        return min(e.margin1 for e in self.entries)

    def part2_min_margin(self) -> Fraction | None:
        margins = [e.margin2 for e in self.entries if e.bound2_applicable]
        return min(margins) if margins else None


def ceil_isqrt(x: int) -> int:
    """Smallest integer >= sqrt(x), exactly."""
    if x < 0:
        raise ValueError("negative argument")
    root = math.isqrt(x)
    return root if root * root == x else root + 1


def audit_tk_bounds(stats: Stats, alpha: int, n: int) -> TkBoundsReport:
    """Check both t_k upper bounds over every k in 2..n.

    Entries cover each k in 2..n that occurs, plus the largest k in 2..n
    with t_k = 0.  Both bounds fall as k grows, so of the vacuous k that one
    has the least margin in each part, and it lies in part 2's range
    whenever any vacuous k does: the report's verdicts and least margins
    are those over every k in 2..n.
    """
    from fractions import Fraction

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pair_total = alpha * math.comb(n, 2)
    threshold_k = alpha * ceil_isqrt(2 * n)
    entries = []
    # The largest k with t_k = 0, or 0 when every k in 2..n occurs.
    vacuous = next((k for k in range(n, 1, -1) if k not in stats.tk), 0)
    for k in sorted(k for k in (*stats.tk, vacuous) if 2 <= k <= n):
        tk = stats.tk.get(k, 0)
        bound1 = Fraction(pair_total, math.comb(k, 2))
        applicable = k >= threshold_k
        bound2 = Fraction(2 * alpha * n, k)
        margin2 = bound2 - tk if applicable else None
        entries.append(
            TkBoundEntry(
                k=k,
                tk=tk,
                bound1=bound1,
                holds1=tk <= bound1,
                margin1=bound1 - tk,
                bound2_applicable=applicable,
                bound2=bound2,
                holds2=(tk < bound2) if applicable else True,
                margin2=margin2,
            )
        )
    return TkBoundsReport(alpha=alpha, n=n, threshold_k=threshold_k, entries=tuple(entries))


@dataclass(frozen=True)
class DiracAuditReport:
    """Proof-step audit of the degree lower bound argument.

    g is the maximum curve degree; h the maximum number of curves adjacent
    to every vertex of some alpha-subset of vertices.  The hypothesis fails
    exactly when some alpha-subset covers all n curves.  When it holds, the
    two proof steps g >= h and C(g, alpha)*h >= n-1 are checked exactly.
    """

    alpha: int
    n: int
    g: int
    h: int
    hypothesis_holds: bool
    witness_subset: tuple[int, ...]
    g_ge_h: bool
    g_margin: int
    binom_ineq_holds: bool
    binom_margin: int


def _best_subset_coverage(s: IncidenceStructure) -> tuple[int, tuple[int, ...]]:
    """Max curves adjacent to all vertices of an alpha-subset, with the
    lexicographically least witness subset (vertex indices).  Both callers
    validate first, and a valid structure has n >= 2 curves, whose pairs
    each lie on alpha records, so it holds at least alpha records.

    The C(vertices, alpha) subsets are refused over the budget set in
    ACCKIT_SUBSET_BUDGET (default 10^7) with SizeLimitExceeded, before the
    search starts.  The scan for alpha = 1 is not capped, but the variable
    is read for it too, so a malformed value is refused on every structure.

    For alpha >= 2 each record becomes an int mask, bit c set for each curve
    c on it.  The search grows a prefix of record indices in rising order;
    the curves its records share are the AND of their masks, and each next
    record, one that still leaves enough records after it to complete the
    subset, is counted by the popcount of that AND with its own mask.
    Shared curves only shrink as the prefix grows, so a record whose count
    is no more than the best found cannot lead to a larger value and is
    skipped; best changes only on a strictly larger value.  Prefixes are
    taken in lexicographic order, and no subset before the least maximiser
    reaches the maximum, so none of its prefixes is skipped and it is the
    witness.  When no subset shares a curve, h is 0 with witness
    (0, ..., alpha-1), the first subset.

    The masks take vertices * n bits, the single-curve bits n * n / 2, and a
    valid alpha >= 2 structure has n <= vertices: two curves on the same
    records would put every curve on those alpha records, making them equal,
    so the curves' record sets are distinct, meet pairwise in alpha records
    and number at most the records (the non-uniform Fisher inequality).
    """
    vcount = len(s.vertices)
    subsets = math.comb(vcount, s.alpha) if s.alpha > 1 else 0
    check_size("subset search", subsets, "evaluations", "ACCKIT_SUBSET_BUDGET")
    if s.alpha == 1:
        sizes = list(map(len, s.vertices))
        best = max(sizes)
        return best, (sizes.index(best),)
    # The ids of a record are distinct, so the sum of their bits is their OR.
    bits = [1 << cid for cid in range(s.n)]
    masks = [sum(map(bits.__getitem__, vertex)) for vertex in s.vertices]
    best, witness = 0, tuple(range(s.alpha))
    stack = [((), (1 << s.n) - 1, iter(range(vcount - s.alpha + 1)))]
    while stack:
        prefix, common, candidates = stack[-1]
        for index in candidates:
            narrower = common & masks[index]
            shared = narrower.bit_count()
            if shared <= best:
                continue
            longer = prefix + (index,)
            if len(longer) == s.alpha:
                best, witness = shared, longer
            else:
                stack.append((longer, narrower, iter(range(index + 1, vcount - s.alpha + len(longer) + 1))))
                break
        else:
            stack.pop()
    return best, witness


def audit_dirac(s: IncidenceStructure) -> DiracAuditReport:
    """Audit the degree argument on a valid structure: g is the largest
    curve degree and h the most curves that all records of some
    alpha-subset share.  The hypothesis holds exactly when h < n; the proof
    steps g >= h and C(g, alpha)*h >= n-1 each get a verdict and a margin."""
    g = compute_stats(s).r
    h, witness = _best_subset_coverage(s)
    hypothesis_holds = h < s.n
    binom = math.comb(g, s.alpha) * h
    return DiracAuditReport(
        alpha=s.alpha,
        n=s.n,
        g=g,
        h=h,
        hypothesis_holds=hypothesis_holds,
        witness_subset=witness,
        g_ge_h=g >= h,
        g_margin=g - h,
        binom_ineq_holds=binom >= s.n - 1,
        binom_margin=binom - (s.n - 1),
    )


def _range_error(name: str, interval: str, value: Fraction) -> ValueError:
    """name's range error, naming value unless it has more digits than str() converts."""
    try:
        return ValueError(f"{name} must lie in {interval}, got {value}")
    except ValueError:
        return ValueError(f"{name} must lie in {interval}")


@dataclass(frozen=True)
class DyadicProfileParams:
    """Window parameters for the dyadic profile of the l_d sums.

    gamma is a rational in [0, 1); v a non-negative integer.  The window is
    [2^v * floor(n^gamma), floor(n / 2^v)] with n^gamma computed as an exact
    integer root.
    """

    gamma: Fraction
    v: int

    def __post_init__(self):
        from fractions import Fraction

        gamma = Fraction(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not (0 <= gamma < 1):
            raise _range_error("gamma", "[0, 1)", gamma)
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")


@dataclass(frozen=True)
class DyadicWindowReport:
    """The window [lower, upper] and the l_d sums below, inside and above it.

    lower = 2^v * root with root = floor(n^gamma), formed only when read:
    for v >= n.bit_length() it exceeds n, so it is known to lie above every
    degree without being formed."""

    root: int
    v: int
    upper: int
    empty_window: bool
    below: int
    inside: int
    above: int
    total: int

    @property
    def lower(self) -> int:
        return self.root << self.v


def integer_power_root(n: int, exponent: Fraction) -> int:
    """floor(n^(a/b)) for rational exponent a/b, via the exact integer
    b-th root of n^a.  Pure integer arithmetic (binary search).  n^a, of at
    most a * n.bit_length() bits, is refused over the size budget before it
    is formed, and the root is 1 without a search once 2^b > n^a."""
    if n < 0:
        raise ValueError("negative base")
    a, b = exponent.numerator, exponent.denominator
    if a == 0:
        return 1
    check_size(f"{n}^{a}", a * n.bit_length(), "bits")
    target = n**a
    if b == 1 or target < 2:
        return target
    if b >= target.bit_length():
        return 1
    low, high = 1, 1 << (target.bit_length() // b + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid**b <= target:
            low = mid
        else:
            high = mid - 1
    return low


def dyadic_profile(stats: Stats, params: DyadicProfileParams, n: int) -> DyadicWindowReport:
    """Sum the l_d profile below, inside, and above the dyadic window."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    root = integer_power_root(n, params.gamma)
    upper = n >> params.v
    # For v >= n.bit_length(), 2^v > n >= every degree d, so upper is 0 and
    # n + 1 compares with upper and each d as the lower bound does.
    lower = root << params.v if params.v < n.bit_length() else n + 1
    empty = lower > upper
    below = inside = above = 0
    for d, count in stats.ld.items():
        if d < lower:
            below += count
        elif d > upper:
            above += count
        else:
            inside += count
    return DyadicWindowReport(
        root=root,
        v=params.v,
        upper=upper,
        empty_window=empty,
        below=below,
        inside=inside,
        above=above,
        total=below + inside + above,
    )


BRANCH_COMPLETE_PENCIL = "IsCompletePencil"
BRANCH_LARGE_COVERAGE = "LargeCoverage"
BRANCH_MANY_VERTICES = "ManyVertices"


@dataclass(frozen=True)
class DichotomyReport:
    """Which escape hatch a structure takes: complete bipartite pattern,
    an alpha-subset of vertices covering a large fraction of curves, or
    simply many vertices.  All supporting data is reported regardless of
    the decisive branch."""

    branch: str
    alpha: int
    n: int
    coverage: int
    witness_subset: tuple[int, ...]
    fraction: Fraction
    vertex_count: int
    vertex_ratio: Fraction


def dichotomy_report(s: IncidenceStructure, fraction) -> DichotomyReport:
    from fractions import Fraction

    report = validate(s)
    if not report.valid:
        raise InvalidStructureError(report)
    fraction = Fraction(fraction)
    if not (0 < fraction <= 1):
        raise _range_error("fraction", "(0, 1]", fraction)

    coverage, witness = _best_subset_coverage(s)
    vertex_count = len(s.vertices)

    # A valid structure with one record is the alpha = 1 pencil; alpha full
    # records would be equal for alpha > 1.
    if vertex_count == 1:
        branch = BRANCH_COMPLETE_PENCIL
    elif coverage >= fraction * s.n:
        branch = BRANCH_LARGE_COVERAGE
    else:
        branch = BRANCH_MANY_VERTICES
    return DichotomyReport(
        branch=branch,
        alpha=s.alpha,
        n=s.n,
        coverage=coverage,
        witness_subset=witness,
        fraction=fraction,
        vertex_count=vertex_count,
        vertex_ratio=Fraction(vertex_count, s.n),
    )
