"""Exact audit tests: tk bounds, the degree argument, pair identities,
dyadic windows, and the dichotomy report."""

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acckit import (
    DyadicProfileParams,
    IncidenceStructure,
    InvalidStructureError,
    SizeLimitExceeded,
    Stats,
    TkBoundEntry,
    TkBoundsReport,
    audit_dirac,
    audit_tk_bounds,
    compute_stats,
    dichotomy_report,
    dyadic_profile,
    expand,
    family_wedge,
    gen_near_pencil,
    gen_pencil,
    gen_simple_cyclic,
    pg2,
    structure_from_lines,
)
from acckit.audits import _best_subset_coverage, ceil_isqrt, integer_power_root


def naive_tk(s):
    counts = {}
    for vertex in s.vertices:
        counts[len(vertex)] = counts.get(len(vertex), 0) + 1
    return counts


def naive_ld(s):
    """Independent of compute_stats: scan all vertices per pair."""
    ld = {}
    for i in range(s.n):
        for j in range(i + 1, s.n):
            degrees = [len(v) for v in s.vertices if i in v and j in v]
            d = min(degrees)
            ld[d] = ld.get(d, 0) + 1
    return ld


def test_tk_bounds_simple_cyclic_equality():
    s = gen_simple_cyclic(10)
    report = audit_tk_bounds(compute_stats(s), 1, 10)
    entry = next(e for e in report.entries if e.k == 2)
    assert entry.tk == 45
    assert entry.bound1 == 45
    assert entry.holds1
    assert entry.margin1 == 0


def test_tk_bounds_near_pencil():
    s = gen_near_pencil(6)
    report = audit_tk_bounds(compute_stats(s), 1, 6)
    entry = next(e for e in report.entries if e.k == 5)
    assert entry.tk == 1
    assert entry.bound1 == Fraction(15, 10)
    assert entry.holds1


def test_tk_bounds_family_brute_force():
    s = expand(family_wedge(1)).structure
    stats = compute_stats(s)
    report = audit_tk_bounds(stats, 1, 25)
    tk = naive_tk(s)
    pair_total = math.comb(25, 2)
    threshold = ceil_isqrt(50)
    for entry in report.entries:
        expected_tk = tk.get(entry.k, 0)
        assert entry.tk == expected_tk
        assert entry.holds1 == (expected_tk * math.comb(entry.k, 2) <= pair_total)
        assert entry.holds1
        assert entry.bound2_applicable == (entry.k >= threshold)
        if entry.bound2_applicable:
            assert entry.holds2 == (expected_tk * entry.k < 2 * 25)
            assert entry.holds2
    assert report.part1_holds and report.part2_holds


def reference_tk_bounds(stats, alpha, n):
    """Both bounds at every k in 2..n, as the audit once built them."""
    pair_total = alpha * math.comb(n, 2)
    threshold_k = alpha * ceil_isqrt(2 * n)
    entries = []
    for k in range(2, n + 1):
        tk = stats.tk.get(k, 0)
        bound1 = Fraction(pair_total, math.comb(k, 2))
        applicable = k >= threshold_k
        bound2 = Fraction(2 * alpha * n, k)
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
                margin2=bound2 - tk if applicable else None,
            )
        )
    return TkBoundsReport(alpha=alpha, n=n, threshold_k=threshold_k, entries=tuple(entries))


def assert_tk_verdicts_match_reference(stats, alpha, n):
    """The audit's verdicts and least margins are those over every k in
    2..n, and each entry it builds is the reference's entry at that k."""
    report, reference = audit_tk_bounds(stats, alpha, n), reference_tk_bounds(stats, alpha, n)
    assert (report.alpha, report.n, report.threshold_k) == (reference.alpha, reference.n, reference.threshold_k)
    assert (report.part1_holds, report.part2_holds) == (reference.part1_holds, reference.part2_holds)
    assert report.part1_min_margin() == reference.part1_min_margin()
    assert report.part2_min_margin() == reference.part2_min_margin()
    assert set(report.entries) <= set(reference.entries)
    assert [e.k for e in report.entries] == sorted(e.k for e in report.entries)


def test_tk_bounds_cover_every_k():
    """Entries cover the degrees that occur and the largest vacuous one,
    which decide the verdicts over every k."""
    s = gen_pencil(6)
    report = audit_tk_bounds(compute_stats(s), 1, 6)
    assert [e.k for e in report.entries] == [5, 6]
    assert report.threshold_k == ceil_isqrt(12)
    assert_tk_verdicts_match_reference(compute_stats(s), 1, 6)


def test_tk_bounds_of_a_large_pencil_have_two_entries():
    report = audit_tk_bounds(compute_stats(gen_pencil(10**5)), 1, 10**5)
    assert [e.k for e in report.entries] == [10**5 - 1, 10**5]


def test_tk_part2_applicability_threshold():
    # n=8: ceil(sqrt(16)) = 4 exactly, so k=4 is the first applicable degree.
    stats = Stats(tk={k: 1 for k in range(2, 9)}, r=1, ld={})
    report = audit_tk_bounds(stats, 1, 8)
    applicable = [e.k for e in report.entries if e.bound2_applicable]
    assert applicable == [4, 5, 6, 7, 8]


def test_dirac_pencil_hypothesis_violated():
    report = audit_dirac(gen_pencil(5))
    assert not report.hypothesis_holds
    assert report.h == 5
    assert report.witness_subset == (0,)


def test_dirac_near_pencil_closed_form():
    for n in (4, 6, 9, 30):
        report = audit_dirac(gen_near_pencil(n))
        assert report.hypothesis_holds
        assert report.g == n - 1
        assert report.h == n - 1
        assert report.g_ge_h and report.g_margin == 0
        assert report.binom_ineq_holds
        assert report.binom_margin == (n - 1) * (n - 1) - (n - 1)


def test_dirac_family_j1():
    s = expand(family_wedge(1)).structure
    report = audit_dirac(s)
    # Brute force h over all vertices.
    assert report.h == max(len(v) for v in s.vertices) == 8
    assert report.g == 10
    assert report.hypothesis_holds
    assert report.g_ge_h and report.g_margin == 2
    assert report.binom_ineq_holds


def test_dirac_alpha_two():
    s = IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    report = audit_dirac(s)
    # Any two vertices share exactly two curves; brute force agrees.
    best = 0
    for i in range(4):
        for j in range(i + 1, 4):
            best = max(best, len(set(s.vertices[i]) & set(s.vertices[j])))
    assert report.h == best == 2
    assert report.g == 3
    assert report.hypothesis_holds
    assert report.g_ge_h
    assert report.binom_ineq_holds  # C(3,2)*2 = 6 >= 3


def test_dirac_witness_is_lexicographically_least():
    # Two degree-2 vertices tie for the maximum; the first index wins.
    s = IncidenceStructure(1, 3, [(0, 1), (0, 2), (1, 2)])
    report = audit_dirac(s)
    assert report.witness_subset == (0,)


def test_dirac_budget_exceeded(monkeypatch):
    s = IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", "3")
    with pytest.raises(SizeLimitExceeded) as caught:
        audit_dirac(s)
    assert str(caught.value) == "subset search needs 6 evaluations, budget is 3; raise ACCKIT_SUBSET_BUDGET to proceed"
    assert (caught.value.size, caught.value.budget) == (6, 3)


def test_pair_identity_examples():
    s = expand(family_wedge(1)).structure
    assert compute_stats(s).ld_total() == math.comb(25, 2) == 300

    triangle = gen_simple_cyclic(3)
    assert compute_stats(triangle).ld_total() == math.comb(3, 2) == 3

    plane = pg2(3)
    s = structure_from_lines(plane, range(13))
    assert compute_stats(s).ld_total() == math.comb(13, 2) == 78


def test_integer_power_root():
    assert integer_power_root(25, Fraction(1, 2)) == 5
    assert integer_power_root(26, Fraction(1, 2)) == 5
    assert integer_power_root(24, Fraction(1, 2)) == 4
    assert integer_power_root(1000, Fraction(2, 3)) == 100
    assert integer_power_root(7, Fraction(0)) == 1
    assert integer_power_root(10**12, Fraction(1, 2)) == 10**6
    assert integer_power_root(2, Fraction(9, 10)) == 1


def reference_power_root(n, exponent):
    """The binary search for floor(n^(a/b)) over n^a, kept as a reference
    without the size check and the 2^b > n^a shortcut."""
    a, b = exponent.numerator, exponent.denominator
    if a == 0:
        return 1
    target = n**a
    if b == 1 or target < 2:
        return target
    low, high = 1, 1 << (target.bit_length() // b + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid**b <= target:
            low = mid
        else:
            high = mid - 1
    return low


@settings(derandomize=True, max_examples=400)
@given(
    root=st.integers(0, 40),
    b=st.integers(1, 40),
    a=st.integers(0, 12),
    shift=st.sampled_from((-1, 0, 1)),
    perfect=st.booleans(),
)
@example(root=3, b=2, a=1, shift=0, perfect=True)
@example(root=1, b=7, a=3, shift=1, perfect=False)
def test_integer_power_root_matches_binary_search(root, b, a, shift, perfect):
    """Bases next to perfect b-th powers, and plain small bases, where
    2^b > n^a and the root is 1 without a search."""
    n = max(0, (root**b if perfect else root) + shift)
    exponent = Fraction(a, b)
    assert integer_power_root(n, exponent) == reference_power_root(n, exponent)


def test_dyadic_whole_range():
    s = gen_simple_cyclic(9)
    stats = compute_stats(s)
    report = dyadic_profile(stats, DyadicProfileParams(gamma=Fraction(0), v=0), 9)
    assert (report.lower, report.upper) == (1, 9)
    assert report.inside == math.comb(9, 2)
    assert report.below == report.above == 0
    assert not report.empty_window


def test_dyadic_family_window():
    s = expand(family_wedge(1)).structure
    stats = compute_stats(s)
    report = dyadic_profile(stats, DyadicProfileParams(gamma=Fraction(1, 2), v=1), 25)
    assert (report.lower, report.upper) == (10, 12)
    assert report.total == 300
    # Independent check from the naive profile.
    ld = naive_ld(s)
    assert report.inside == sum(c for d, c in ld.items() if 10 <= d <= 12) == 0
    assert report.below == sum(c for d, c in ld.items() if d < 10) == 300
    assert report.above == 0


def test_dyadic_empty_window():
    s = gen_simple_cyclic(6)
    stats = compute_stats(s)
    report = dyadic_profile(stats, DyadicProfileParams(gamma=Fraction(1, 2), v=3), 6)
    assert report.empty_window
    assert report.inside == 0
    assert report.total == math.comb(6, 2)


def test_dyadic_param_validation():
    with pytest.raises(ValueError):
        DyadicProfileParams(gamma=Fraction(1), v=0)
    with pytest.raises(ValueError):
        DyadicProfileParams(gamma=Fraction(-1, 2), v=0)
    with pytest.raises(ValueError):
        DyadicProfileParams(gamma=Fraction(1, 2), v=-1)


def params_from_exponents(delta, epsilon, zeta, v):
    """Window parameters derived from exponent triples (delta, epsilon,
    zeta): gamma = max(delta/epsilon, zeta)."""
    delta, epsilon, zeta = Fraction(delta), Fraction(epsilon), Fraction(zeta)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (0 <= delta < epsilon / 2):
        raise ValueError("need 0 <= delta < epsilon/2")
    if not (0 <= zeta < Fraction(1, 2)):
        raise ValueError("need 0 <= zeta < 1/2")
    return DyadicProfileParams(gamma=max(delta / epsilon, zeta), v=v)


def test_dyadic_params_from_exponents():
    params = params_from_exponents(Fraction(1, 10), Fraction(1, 2), Fraction(1, 4), 2)
    assert params == DyadicProfileParams(gamma=Fraction(1, 4), v=2)
    params = params_from_exponents(Fraction(1, 5), Fraction(1, 2), Fraction(1, 4), 0)
    assert params.gamma == Fraction(2, 5)
    with pytest.raises(ValueError):
        params_from_exponents(Fraction(1, 2), Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        params_from_exponents(0, Fraction(1, 2), Fraction(1, 2), 0)


def test_dichotomy_pencil():
    report = dichotomy_report(gen_pencil(7), Fraction(1, 2))
    assert report.branch == "IsCompletePencil"
    assert report.coverage == 7
    # Only a single record takes the complete branch, not alpha = 2 over a
    # full record nor alpha = 2 without one.
    for s in (QUAD, pencil_over_plane(3)):
        assert dichotomy_report(s, Fraction(1, 2)).branch != "IsCompletePencil"


def test_dichotomy_family_large_coverage():
    s = expand(family_wedge(1)).structure
    report = dichotomy_report(s, Fraction(8, 25))
    assert report.branch == "LargeCoverage"
    assert report.coverage == 8  # the apex, (n-1)/3 curves
    assert report.witness_subset == (0,)

    # A stricter fraction drops to the vertex-count branch.
    report = dichotomy_report(s, Fraction(1, 2))
    assert report.branch == "ManyVertices"
    assert report.vertex_count == 81


def test_dichotomy_simple_cyclic():
    report = dichotomy_report(gen_simple_cyclic(8), Fraction(1, 2))
    assert report.branch == "ManyVertices"
    assert report.vertex_count == 28
    assert report.vertex_ratio == Fraction(28, 8)


def test_dichotomy_alpha_two():
    # A complete K_{n,alpha} pattern with alpha >= 2 would need alpha vertex
    # records with identical id sets, which the axioms forbid, so only
    # alpha = 1 structures can take the complete branch.
    quad = IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    report = dichotomy_report(quad, Fraction(1, 2))
    assert report.branch == "LargeCoverage"
    assert report.coverage == 2


def test_dichotomy_fraction_validation():
    with pytest.raises(ValueError):
        dichotomy_report(gen_pencil(5), Fraction(0))
    with pytest.raises(ValueError):
        dichotomy_report(gen_pencil(5), Fraction(3, 2))


def test_dichotomy_validates_before_fraction():
    invalid = IncidenceStructure(1, 3, [(0, 1), (0, 1, 2)])
    with pytest.raises(InvalidStructureError):
        dichotomy_report(invalid, Fraction(3, 2))


def test_audits_are_pure():
    s = gen_near_pencil(7)
    stats = compute_stats(s)
    assert audit_tk_bounds(stats, 1, 7) == audit_tk_bounds(stats, 1, 7)
    assert audit_dirac(s) == audit_dirac(s)
    assert dichotomy_report(s, Fraction(1, 3)) == dichotomy_report(s, Fraction(1, 3))


@st.composite
def plane_substructures(draw):
    from acckit import sample_lines

    p = draw(st.sampled_from((3, 5, 7)))
    plane = pg2(p)
    total = p * p + p + 1
    n = draw(st.integers(min_value=2, max_value=total))
    seed = draw(st.integers(min_value=0, max_value=2**63))
    return structure_from_lines(plane, sample_lines(plane, n, seed))


@settings(derandomize=True, max_examples=80)
@given(plane_substructures())
def test_tk_bounds_hold_on_random_plane_structures(s):
    stats = compute_stats(s)
    report = audit_tk_bounds(stats, s.alpha, s.n)
    assert report.part1_holds
    assert report.part2_holds
    assert_tk_verdicts_match_reference(stats, s.alpha, s.n)


@settings(derandomize=True, max_examples=80)
@given(plane_substructures())
def test_pair_identity_holds_on_random_plane_structures(s):
    assert compute_stats(s).ld_total() == math.comb(s.n, 2)


@settings(derandomize=True, max_examples=60)
@given(plane_substructures())
def test_dirac_steps_hold_when_hypothesis_does(s):
    report = audit_dirac(s)
    if report.hypothesis_holds:
        assert report.g_ge_h
        assert report.binom_ineq_holds
    else:
        assert report.h == s.n


@settings(derandomize=True, max_examples=60)
@given(
    plane_substructures(),
    st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
    st.integers(min_value=0, max_value=6),
)
def test_dyadic_three_way_split_is_total(s, gamma, v):
    stats = compute_stats(s)
    report = dyadic_profile(stats, DyadicProfileParams(gamma=gamma, v=v), s.n)
    assert report.below + report.inside + report.above == math.comb(s.n, 2)
    if report.empty_window:
        assert report.inside == 0
    # The window as first written, with 2^v formed, on both sides of
    # v = n.bit_length(), where the report stops forming it.
    lower, upper = 2**v * integer_power_root(s.n, gamma), s.n // 2**v
    assert (report.lower, report.upper, report.empty_window) == (lower, upper, lower > upper)
    assert report.below == sum(c for d, c in stats.ld.items() if d < lower)
    assert report.above == sum(c for d, c in stats.ld.items() if d >= lower and d > upper)


def reference_subset_coverage(s):
    """The subset search as first written, kept as a reference: every
    alpha-subset of vertex records in lexicographic order, intersecting
    their id sets."""
    if s.alpha == 1:
        best, witness = -1, (0,)
        for index, vertex in enumerate(s.vertices):
            if len(vertex) > best:
                best, witness = len(vertex), (index,)
        return best, witness
    sets = [frozenset(v) for v in s.vertices]
    best, witness = -1, tuple(range(s.alpha))
    for combo in combinations(range(len(s.vertices)), s.alpha):
        common = sets[combo[0]]
        for index in combo[1:]:
            common = common & sets[index]
            if len(common) <= best:
                break
        if len(common) > best:
            best, witness = len(common), combo
    return best, witness


@st.composite
def record_lists(draw):
    """alpha in 1..4 and up to 9 non-empty records over up to 8 curves;
    records may repeat, be disjoint or share nothing at all."""
    alpha = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=8))
    record = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True)
    records = draw(st.lists(record, min_size=alpha, max_size=9))
    return IncidenceStructure(alpha, n, records)


@settings(derandomize=True, max_examples=400)
@given(record_lists())
@example(IncidenceStructure(2, 4, [(0,), (1,), (2,), (3,)]))  # every intersection empty
@example(IncidenceStructure(3, 6, [(0, 1), (2, 3), (4, 5), (0, 2, 4)]))  # disjoint triples
@example(IncidenceStructure(2, 5, [(0, 1), (2, 3, 4), (0, 1, 4), (2, 3)]))  # ties of equal size
@example(IncidenceStructure(4, 3, [(0, 1, 2)] * 5))  # every subset ties
@example(IncidenceStructure(2, 130, [(0, 64, 129), (0, 64), (64, 129), (0, 129)]))  # masks of three words
@example(IncidenceStructure(3, 200, [(63, 64, 127, 128, 199), (64, 128, 199), (63, 127, 199), (63, 64, 128, 199)]))  # alpha = 3 over four words
def test_subset_search_matches_reference(s):
    assert _best_subset_coverage(s) == reference_subset_coverage(s)


def pencil_over_plane(p):
    """PG(2, p) with a pencil vertex added: every pair of lines meets twice."""
    n = p * p + p + 1
    plane = structure_from_lines(pg2(p), range(n))
    return IncidenceStructure(2, n, plane.vertices + gen_pencil(n).vertices)


def plane_with_copy(p):
    """PG(2, p) plus its points with curve c relabelled n - 1 - c: every pair
    of lines meets twice.  At p = 3 no point of the copy is a point of the
    plane, so the structure is valid, with alpha = 2 and no full record."""
    n = p * p + p + 1
    plane = structure_from_lines(pg2(p), range(n))
    return IncidenceStructure(2, n, [*plane.vertices, *(sorted(n - 1 - c for c in v) for v in plane.vertices)])


QUAD = IncidenceStructure(2, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
TRIPLES = IncidenceStructure(3, 5, combinations(range(5), 3))
# All 29-subsets of 30 curves: alpha = 28, and each of the C(30, 28)
# subsets of records shares exactly 2 curves, so counts prune almost nothing;
# the search must keep to prefixes that can still be completed.
ALL_BUT_ONE = IncidenceStructure(28, 30, combinations(range(30), 29))


@pytest.mark.parametrize(
    "s",
    [QUAD, TRIPLES, ALL_BUT_ONE, pencil_over_plane(2), pencil_over_plane(3), pencil_over_plane(5), plane_with_copy(3)],
    ids=["quad", "triples", "all-but-one", "pg2+pencil", "pg3+pencil", "pg5+pencil", "pg3+copy"],
)
def test_subset_audits_match_reference_on_valid_structures(s):
    h, witness = reference_subset_coverage(s)
    report = audit_dirac(s)
    assert (report.h, report.witness_subset) == (h, witness)
    dichotomy = dichotomy_report(s, Fraction(1, 2))
    assert (dichotomy.coverage, dichotomy.witness_subset) == (h, witness)


@settings(derandomize=True, max_examples=30)
@given(st.sampled_from((2, 3, 5, 7, None)), st.randoms(use_true_random=False))
def test_ld_matches_pair_minimum_under_relabelling(p, rng):
    """For alpha >= 2, compute_stats gives naive_ld on PG(2, p) plus a pencil
    and on the alpha = 3 design of all triples on 5 curves, with curves
    relabelled and records reordered at random."""
    base = TRIPLES if p is None else pencil_over_plane(p)
    label = list(range(base.n))
    rng.shuffle(label)
    records = [[label[cid] for cid in vertex] for vertex in base.vertices]
    rng.shuffle(records)
    s = IncidenceStructure(base.alpha, base.n, records)
    stats = compute_stats(s)
    assert stats.ld == naive_ld(s)
    assert sum(stats.ld.values()) == math.comb(s.n, 2)
    assert stats.tk == dict(sorted(naive_tk(s).items()))
    assert stats.r == max(sum(cid in v for v in s.vertices) for cid in range(s.n))


def with_pencil(s):
    """s plus a full record of all its curves, with alpha one higher."""
    return IncidenceStructure(s.alpha + 1, s.n, s.vertices + gen_pencil(s.n).vertices)


@pytest.mark.parametrize(
    "s",
    [
        gen_pencil(9),
        with_pencil(gen_near_pencil(9)),
        with_pencil(gen_simple_cyclic(8)),
        # alpha = 3 keeps the walk: records of degrees 2, 3, 6 and 7.
        with_pencil(
            IncidenceStructure(2, 7, structure_from_lines(pg2(2), range(7)).vertices + gen_near_pencil(7).vertices)
        ),
    ],
    ids=["pencil", "near-pencil+pencil", "simple+pencil", "alpha3"],
)
def test_full_record_stats_match_naive(s):
    """With F full records and alpha - F <= 1, l_d is t_d * C(d, 2) over
    d < n, plus C(n, 2) at d = n for the alpha = 1 pencil."""
    stats = compute_stats(s)
    assert stats.ld == naive_ld(s)
    assert stats.tk == dict(sorted(naive_tk(s).items()))


class UnreadRecord(tuple):
    """A record whose ids may be counted but not read."""

    def __iter__(self):
        raise AssertionError("record ids read")


def test_refused_search_builds_no_index(monkeypatch):
    """The C(vertices, alpha) budget check comes before any per-record work,
    and alpha = 1 counts its records' ids without building masks."""

    def unread(s):
        return SimpleNamespace(alpha=s.alpha, n=s.n, vertices=[UnreadRecord(v) for v in s.vertices])

    monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", "5")
    with pytest.raises(SizeLimitExceeded):
        audit_dirac(QUAD)
    with pytest.raises(SizeLimitExceeded):
        dichotomy_report(QUAD, Fraction(1, 2))
    with pytest.raises(SizeLimitExceeded):
        _best_subset_coverage(unread(QUAD))
    assert _best_subset_coverage(unread(gen_near_pencil(6))) == _best_subset_coverage(gen_near_pencil(6))
    assert audit_dirac(gen_near_pencil(6)).h == 5


@pytest.mark.parametrize(
    "s",
    [
        gen_pencil(6),
        gen_near_pencil(6),
        gen_simple_cyclic(10),
        expand(family_wedge(1)).structure,
        expand(family_wedge(2)).structure,
        structure_from_lines(pg2(3), range(13)),
        QUAD,
        TRIPLES,
        ALL_BUT_ONE,
        pencil_over_plane(2),
        pencil_over_plane(5),
        with_pencil(gen_near_pencil(9)),
    ],
    ids=["pencil", "near-pencil", "simple", "j1", "j2", "pg3", "quad", "triples", "all-but-one", "pg2+pencil", "pg5+pencil", "near-pencil+pencil"],
)
def test_tk_bounds_match_every_k_reference(s):
    assert_tk_verdicts_match_reference(compute_stats(s), s.alpha, s.n)
