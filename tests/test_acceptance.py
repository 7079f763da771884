"""Acceptance suite: one test per criterion, each at zero tolerance.

Every test prints a single ACCEPTANCE line (PASS or FAIL) so the suite can
be read as a checklist with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import math
import time
import xml.etree.ElementTree as ET

from acckit import (
    IncidenceStructure,
    audit_dirac,
    audit_tk_bounds,
    compute_stats,
    expand,
    family_wedge,
    gen_near_pencil,
    gen_pencil,
    gen_simple_cyclic,
    parse_structure,
    pg2,
    render_arrangement,
    sample_lines,
    serialize_structure,
    serialize_wedge,
    structure_from_lines,
    validate,
)
from acckit.cli import dispatch
from test_family import per_class_max_degrees
from test_structure import canonical, curve_degrees

SAMPLE_PRIMES = (5, 7, 11, 13)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {title}: PASS")

        return run

    return wrap


def _pg_samples(seeds_per_prime):
    """Deterministic seeded selections across the sample primes."""
    for p in SAMPLE_PRIMES:
        plane = pg2(p)
        total = p * p + p + 1
        for seed in range(seeds_per_prime):
            n = 3 + (seed * 37 + p) % (total - 3)
            ids = sample_lines(plane, n, seed)
            yield p, seed, structure_from_lines(plane, ids)


@criterion(1, "family exact counts for j in 1..12")
def test_family_counts():
    start = time.monotonic()
    for j in range(1, 13):
        arr = expand(family_wedge(j))
        s = arr.structure
        assert s.alpha == 1
        assert validate(s).valid
        # Expansion validates by rotation orbits; a fresh copy of the
        # records takes the full pass, so the counts below do not rest on
        # the shortcut alone.
        assert validate(IncidenceStructure(1, s.n, list(s.vertices))).valid
        stats = compute_stats(s)
        n = s.n
        assert n == 18 * j + 7
        assert stats.r == 8 * j + 2
        assert stats.r in curve_degrees(s)
        assert 9 * stats.r == 4 * n - 10
        assert 3 * arr.apex_degree() == n - 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"family sweep took {elapsed:.1f}s"


@criterion(2, "base case j=1 printed numbers")
def test_base_case_numbers():
    arr = expand(family_wedge(1))
    stats = compute_stats(arr.structure)
    assert arr.structure.n == 25
    assert stats.r == 10
    assert max(curve_degrees(arr.structure)) == 10


@criterion(3, "tk bounds on family, fixtures, and 100 plane samples")
def test_tk_bounds_everywhere():
    structures = []
    for j in range(1, 13):
        structures.append(expand(family_wedge(j)).structure)
    for n in range(3, 201):
        structures.append(gen_pencil(n))
        structures.append(gen_near_pencil(n))
        structures.append(gen_simple_cyclic(n))
    samples = list(_pg_samples(25))
    assert len(samples) == 100
    structures.extend(s for _, _, s in samples)

    for s in structures:
        report = audit_tk_bounds(compute_stats(s), s.alpha, s.n)
        assert report.part1_holds
        assert report.part2_holds


@criterion(4, "degree-argument audit on every fixture")
def test_dirac_everywhere():
    hypothesis_cases = 0
    for j in range(1, 13):
        report = audit_dirac(expand(family_wedge(j)).structure)
        assert report.hypothesis_holds
        assert report.g_ge_h
        assert report.binom_ineq_holds
        hypothesis_cases += 1
    for n in range(3, 201):
        report = audit_dirac(gen_pencil(n))
        assert not report.hypothesis_holds

        for s in (gen_near_pencil(n), gen_simple_cyclic(n)):
            report = audit_dirac(s)
            assert report.hypothesis_holds
            assert report.g_ge_h
            assert report.binom_ineq_holds
            hypothesis_cases += 1
    for _, _, s in _pg_samples(25):
        report = audit_dirac(s)
        if report.hypothesis_holds:
            assert report.g_ge_h
            assert report.binom_ineq_holds
    assert hypothesis_cases > 0


@criterion(5, "pair identity over 500+ randomized structures")
def test_pair_identity_everywhere():
    cases = 0
    for _, _, s in _pg_samples(50):
        assert compute_stats(s).ld_total() == math.comb(s.n, 2)
        cases += 1
    for n in range(3, 104):
        for s in (gen_pencil(n), gen_near_pencil(n), gen_simple_cyclic(n)):
            assert compute_stats(s).ld_total() == math.comb(s.n, 2)
            cases += 1
    for j in range(1, 13):
        s = expand(family_wedge(j)).structure
        assert compute_stats(s).ld_total() == math.comb(s.n, 2)
        cases += 1
    assert cases >= 500, f"only {cases} cases"


@criterion(6, "closed-form fixture statistics")
def test_closed_forms():
    for n in (3, 8, 25, 77, 200):
        stats = compute_stats(gen_simple_cyclic(n))
        assert stats.tk == {2: math.comb(n, 2)}
        assert stats.r == n - 1
        stats = compute_stats(gen_near_pencil(n))
        assert stats.r == n - 1
    for p in (2, 3, 5, 7, 11):
        plane = pg2(p)
        stats = compute_stats(structure_from_lines(plane, range(p * p + p + 1)))
        assert stats.tk == {p + 1: p * p + p + 1}
        assert stats.r == p + 1


@criterion(7, "induction ledger: worst class grows by 8")
def test_induction_ledger():
    maxima = [per_class_max_degrees(expand(family_wedge(j))) for j in range(1, 9)]
    for prev, here in zip(maxima, maxima[1:]):
        assert max(here.values()) - max(prev.values()) == 8
        assert here["red"] - prev["red"] == 8
        assert here["blue"] - prev["blue"] == 8


@criterion(8, "byte determinism and round trips")
def test_determinism():
    pairs = [
        (serialize_wedge(family_wedge(3)), serialize_wedge(family_wedge(3))),
        (
            serialize_structure(expand(family_wedge(2)).structure),
            serialize_structure(expand(family_wedge(2)).structure),
        ),
        (
            serialize_structure(gen_near_pencil(40)),
            serialize_structure(gen_near_pencil(40)),
        ),
        (
            serialize_structure(structure_from_lines(pg2(7), sample_lines(pg2(7), 20, 9))),
            serialize_structure(structure_from_lines(pg2(7), sample_lines(pg2(7), 20, 9))),
        ),
        (render_arrangement(family_wedge(1)), render_arrangement(family_wedge(1))),
    ]
    for first, second in pairs:
        assert first == second

    # Canonical round trip: parse then serialize reproduces the bytes.
    for s in (
        expand(family_wedge(1)).structure,
        gen_simple_cyclic(12),
        structure_from_lines(pg2(5), range(10)),
    ):
        text = serialize_structure(s)
        assert serialize_structure(parse_structure(text)) == text
        assert parse_structure(text) == canonical(s)

    # Audit output through the CLI is byte-stable too.
    import contextlib
    import io as io_module
    import sys

    def run(argv, stdin_text):
        old_stdin = sys.stdin
        sys.stdin = io_module.StringIO(stdin_text)
        buffer = io_module.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                assert dispatch(argv) == 0
        finally:
            sys.stdin = old_stdin
        return buffer.getvalue()

    acc = serialize_structure(expand(family_wedge(1)).structure)
    for argv in (
        ["audit", "thm3", "-"],
        ["audit", "dirac", "-"],
        ["audit", "dyadic", "-", "--gamma", "1/2", "--v", "1"],
        ["stats", "-", "--format", "machine"],
    ):
        assert run(argv, acc) == run(argv, acc)


@criterion(9, "renderer SVG counts for j in {1, 2}")
def test_render_counts():
    for j, expected in ((1, 25), (2, 43)):
        svg = render_arrangement(family_wedge(j))
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == expected


@criterion(10, "documented CLI pipelines exit cleanly")
def test_cli_examples():
    # Exit-code contract on the flagship commands, run directly.
    import contextlib
    import io as io_module
    import sys

    def run(argv, stdin_text=""):
        old_stdin = sys.stdin
        sys.stdin = io_module.StringIO(stdin_text)
        buffer = io_module.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = dispatch(argv)
        finally:
            sys.stdin = old_stdin
        return code, buffer.getvalue()

    code, wedge_text = run(["gen", "family", "--j", "1"])
    assert code == 0
    code, out = run(["audit", "pairs", "-"], wedge_text)
    assert code == 0 and out == "CHECK pairs holds 300/300\n"
    code, out = run(["audit", "thm3", "-"], wedge_text)
    assert code == 0
    code, pencil = run(["gen", "pencil", "--n", "5"])
    code, out = run(["audit", "dirac", "-"], pencil)
    assert code == 0 and "hypothesis_violated" in out
