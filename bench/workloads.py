"""Workloads of the acckit benchmark: input files, job lists and output checks.

A job is one ``acckit`` command, or a pipeline of them in which stage k+1
reads stage k's standard output as ``-``.  It names the exit code its last
stage must give and a check of that stage's output.  Set-up writes every
input file through acckit's public API; all randomness is drawn from the
benchmark seed, so the program only ever sees generated files and stdin.

Three workloads stress different layers:

* ``family_cli``: the paper's dihedral family on the ladder j = 1, 4, 16, 64.
  Expand, validate on many low-degree vertices, stats and large-text
  parse/serialize do the work; the plane module and the alpha >= 2 subset
  search do none.
* ``planes``: PG(2, p) for p = 11, 23, 31, seeded line samples, the n = 200
  fixtures and one alpha = 2 structure.  No wedge is expanded; validate sees
  few high-degree vertices, and only here do ``plane``, the alpha >= 2 pair
  minimum in ``compute_stats`` and the subset search do real work.
* ``invalid_inputs``: the failure path.  The same layers write violations,
  refusals and parse errors instead of passing.

Two hostile inputs are scaled down so that the benchmark cannot exhaust a
shared machine: a wedge declaring ``m 100000000`` is left out, because its
expansion has no size budget yet and was killed out of memory; and the
4-line structure that declares ``lines 3000`` runs as ``lines 1000``, which
still turns 4 input lines into about 24 MB of output (about 1.8 GB of RSS
at 3000).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import acckit as ak

Check = Callable[[str, str], "str | None"]


@dataclass(frozen=True)
class Job:
    """One timed command line; ``check(stdout, stderr)`` returns a problem or None."""

    name: str
    stages: tuple[tuple[str, ...], ...]
    check: Check
    expect: int = 0
    save_as: str | None = None
    family_j: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    key_job: str
    jobs: tuple[Job, ...]
    write_inputs: Callable[[Path], None]


@dataclass(frozen=True)
class Rung:
    """Sizes of one benchmark scale; FULL is the benchmark, SMALLEST its self-test."""

    family_ladder: tuple[int, ...]
    family_top: int
    family_mid: int
    primes: tuple[int, ...]
    fixture_n: int
    lines_declared: int


FULL = Rung((1, 4, 16, 64), 64, 16, (11, 23, 31), 200, 1000)
SMALLEST = Rung((1,), 1, 1, (11,), 20, 40)

# pencil + simple(150) at alpha = 2 has C(11176, 2) = 62.4M vertex pairs,
# above the default subset budget of 10M at every rung.
REFUSED_SIMPLE_N = 150


def _stage(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv)


# Output checks.


def _lines(text: str) -> list[str]:
    return text.splitlines()


def all_checks_hold(stdout: str, stderr: str) -> str | None:
    checks = [line for line in _lines(stdout) if line.startswith("CHECK ")]
    if not checks:
        return "no CHECK line"
    failing = [line for line in checks if line.split()[2] != "holds"]
    return f"{len(failing)} CHECK line(s) fail, first {failing[0]!r}" if failing else None


def expect_exact(expected: str) -> Check:
    def check(stdout: str, stderr: str) -> str | None:
        return None if stdout == expected else f"expected {expected!r}, got {stdout[:200]!r}"

    return check


def pairs_hold(n: int) -> Check:
    total = math.comb(n, 2)
    return expect_exact(f"CHECK pairs holds {total}/{total}\n")


def expect_prefix(prefix: str) -> Check:
    def check(stdout: str, stderr: str) -> str | None:
        return None if stdout.startswith(prefix) else f"expected {prefix!r}, got {stdout[:200]!r}"

    return check


def _machine_stats(stdout: str) -> tuple[dict[str, int], dict[int, int], dict[int, int]]:
    stat, tk, ld = {}, {}, {}
    for line in _lines(stdout):
        kind, key, value = line.split()
        if kind == "STAT":
            stat[key] = int(value)
        else:
            (tk if kind == "TK" else ld)[int(key)] = int(value)
    return stat, tk, ld


def machine_stats(alpha: int, n: int, vertices: int | None = None, r: int | None = None) -> Check:
    """STAT lines as given, and the identities sum t_k C(k,2) = alpha C(n,2)
    and sum l_d = C(n,2) that every valid structure satisfies."""

    def check(stdout: str, stderr: str) -> str | None:
        stat, tk, ld = _machine_stats(stdout)
        want = {"alpha": alpha, "n": n, "vertices": vertices, "r": r}
        for key, value in want.items():
            if value is not None and stat.get(key) != value:
                return f"STAT {key} is {stat.get(key)}, expected {value}"
        if sum(c * math.comb(k, 2) for k, c in tk.items()) != alpha * math.comb(n, 2):
            return "sum t_k C(k,2) != alpha C(n,2)"
        if sum(ld.values()) != math.comb(n, 2):
            return "sum l_d != C(n,2)"
        return None

    return check


def family_stats(j: int) -> Check:
    """n = 18j+7, r = 8j+2 and 9r = 4n-10 from the STAT lines."""
    n, r = 18 * j + 7, 8 * j + 2
    base = machine_stats(1, n, r=r)

    def check(stdout: str, stderr: str) -> str | None:
        problem = base(stdout, stderr)
        if problem:
            return problem
        stat = _machine_stats(stdout)[0]
        return None if 9 * stat["r"] == 4 * stat["n"] - 10 else "9r != 4n-10"

    return check


def family_acc(j: int) -> Check:
    """Canonical .acc of family member j: header, an apex vertex on the
    (n-1)/3 mirrors, and sum over vertices of C(k,2) = C(n,2)."""
    n = 18 * j + 7
    header = f"acc 1\nalpha 1\nlines {n}\n"
    apex = "v " + " ".join(str(i) for i in range((n - 1) // 3))

    def check(stdout: str, stderr: str) -> str | None:
        if not stdout.startswith(header):
            return f"bad header {stdout[:40]!r}"
        rows = _lines(stdout)[3:]
        if apex not in rows:
            return "no apex vertex on (n-1)/3 curves"
        if sum(math.comb(row.count(" "), 2) for row in rows) != math.comb(n, 2):
            return "vertex pair count != C(n,2)"
        return None

    return check


def svg_with_polylines(count: int) -> Check:
    def check(stdout: str, stderr: str) -> str | None:
        if not stdout.rstrip().endswith("</svg>"):
            return "SVG not terminated"
        found = stdout.count("<polyline")
        return None if found == count else f"{found} polylines, expected {count}"

    return check


def fails_with(fragment: str) -> Check:
    """A failure report: a line starting 'error:' or 'invalid' that contains fragment."""

    def check(stdout: str, stderr: str) -> str | None:
        for line in _lines(stderr) + _lines(stdout)[:1]:
            if line.startswith(("error:", "invalid")) and fragment in line:
                return None
        return f"no 'error:'/'invalid' line containing {fragment!r}"

    return check


# Workloads.


def family_cli(seed: int, rung: Rung) -> Workload:
    """The family ladder.  The inputs are fixed by j, so the seed is unused."""
    top, mid = rung.family_top, rung.family_mid
    n_mid = 18 * mid + 7
    mid_file = f"j{mid}.wedge"
    top_acc = f"j{top}.acc"

    def write_inputs(work: Path):
        (work / mid_file).write_text(ak.serialize_wedge(ak.family_wedge(mid)))

    jobs = [
        Job(
            f"pairs.j{j}",
            (_stage("gen", "family", "--j", j), _stage("audit", "pairs", "-")),
            pairs_hold(18 * j + 7),
            family_j=j,
        )
        for j in rung.family_ladder
    ]
    jobs += [
        Job(
            f"expand.j{top}",
            (_stage("gen", "family", "--j", top), _stage("expand", "-")),
            family_acc(top),
            save_as=top_acc,
            family_j=top,
        ),
        Job(f"thm3.j{top}", (_stage("audit", "thm3", top_acc),), all_checks_hold),
        Job(f"stats.j{top}", (_stage("stats", top_acc, "--format", "machine"),), family_stats(top)),
        Job(
            f"validate.j{mid}",
            (_stage("validate", mid_file),),
            expect_prefix(f"valid alpha=1 n={n_mid} "),
            family_j=mid,
        ),
        Job(f"dirac.j{mid}", (_stage("audit", "dirac", mid_file),), all_checks_hold, family_j=mid),
        Job(
            f"dyadic.j{mid}",
            (_stage("audit", "dyadic", mid_file, "--gamma", "1/2", "--v", 1),),
            all_checks_hold,
            family_j=mid,
        ),
        Job(
            f"dichotomy.j{mid}",
            (_stage("audit", "dichotomy", mid_file, "--fraction", "8/25"),),
            expect_prefix(
                "NOTE dichotomy branch LargeCoverage\n"
                f"NOTE dichotomy coverage {(n_mid - 1) // 3}/{n_mid}\n"
            ),
            family_j=mid,
        ),
        Job(f"render.j{mid}", (_stage("render", "arrangement", mid_file),), svg_with_polylines(n_mid)),
    ]
    return Workload("family_cli", f"pairs.j{top}", tuple(jobs), write_inputs)


def planes(seed: int, rung: Rung) -> Workload:
    """Finite planes, fixtures and one alpha = 2 structure; the seed picks
    the line samples."""
    rng = random.Random(f"planes:{seed}")
    big = rung.primes[-1]
    n_big = big * big + big + 1

    def write_inputs(work: Path):
        plane = ak.structure_from_lines(ak.pg2(big), range(n_big))
        (work / "pg_all.acc").write_text(ak.serialize_structure(plane))
        pencil = ak.gen_pencil(n_big)
        union = ak.IncidenceStructure(2, n_big, plane.vertices + pencil.vertices)
        (work / "alpha2.acc").write_text(ak.serialize_structure(union))

    jobs = [
        Job(
            f"pairs.pg{p}",
            (_stage("gen", "pg2", "--p", p, "--all"), _stage("audit", "pairs", "-")),
            pairs_hold(p * p + p + 1),
        )
        for p in rung.primes
    ]
    jobs += [
        Job(
            f"validate.pg{big}",
            (_stage("validate", "pg_all.acc"),),
            expect_exact(f"valid alpha=1 n={n_big} vertices={n_big}\n"),
        ),
        Job(f"thm3.pg{big}", (_stage("audit", "thm3", "pg_all.acc"),), all_checks_hold),
        Job(f"dirac.pg{big}", (_stage("audit", "dirac", "pg_all.acc"),), all_checks_hold),
    ]
    # Seeded samples of half the lines, one reader per prime.
    readers = (
        lambda n: (_stage("stats", "-"), expect_prefix(f"alpha = 1, n = {n}, ")),
        lambda n: (_stage("stats", "-", "--format", "machine"), machine_stats(1, n)),
        lambda n: (_stage("audit", "thm3", "-"), all_checks_hold),
    )
    for p, reader in zip(reversed(rung.primes), readers):
        n = (p * p + p + 1) // 2
        stage, check = reader(n)
        sample_seed = rng.randrange(1 << 32)
        jobs.append(
            Job(
                f"sample.pg{p}",
                (_stage("gen", "pg2", "--p", p, "--n", n, "--seed", sample_seed), stage),
                check,
            )
        )
    n = rung.fixture_n
    jobs += [
        Job(
            f"simple.n{n}",
            (_stage("gen", "simple", "--n", n), _stage("stats", "-", "--format", "machine")),
            machine_stats(1, n, vertices=math.comb(n, 2), r=n - 1),
        ),
        Job(f"pencil.n{n}", (_stage("gen", "pencil", "--n", n), _stage("audit", "thm3", "-")), all_checks_hold),
        Job(
            f"near_pencil.n{n}",
            (_stage("gen", "near-pencil", "--n", n), _stage("audit", "pairs", "-")),
            pairs_hold(n),
        ),
        Job("dirac.alpha2", (_stage("audit", "dirac", "alpha2.acc"),), all_checks_hold),
        Job(
            "dichotomy.alpha2",
            (_stage("audit", "dichotomy", "alpha2.acc", "--fraction", "1/2"),),
            expect_prefix(f"NOTE dichotomy branch ManyVertices\nNOTE dichotomy coverage {big + 1}/{n_big}\n"),
        ),
        Job(
            "stats.alpha2",
            (_stage("stats", "alpha2.acc", "--format", "machine"),),
            machine_stats(2, n_big, vertices=n_big + 1, r=big + 2),
        ),
    ]
    return Workload("planes", "dirac.alpha2", tuple(jobs), write_inputs)


def invalid_inputs(seed: int, rung: Rung) -> Workload:
    """Broken structures, wedges and text; the seed picks every perturbation."""
    mid = rung.family_mid
    declared = rung.lines_declared

    def write_inputs(work: Path):
        rng = random.Random(f"invalid_inputs:{seed}")
        family = ak.family_wedge(mid)
        good = ak.expand(family).structure
        vertices = list(good.vertices)

        def write_acc(name: str, structure: ak.IncidenceStructure) -> str:
            text = ak.serialize_structure(structure)
            (work / name).write_text(text)
            return text

        dropped = list(vertices)
        dropped.pop(rng.randrange(len(dropped)))
        write_acc("dropped.acc", ak.IncidenceStructure(1, good.n, dropped))
        duplicated = vertices + [vertices[rng.randrange(len(vertices))]]
        write_acc("duplicated.acc", ak.IncidenceStructure(1, good.n, duplicated))
        a, b = rng.sample(range(len(vertices)), 2)
        merged = [v for i, v in enumerate(vertices) if i not in (a, b)]
        merged.append(sorted(set(vertices[a]) | set(vertices[b])))
        write_acc("merged.acc", ak.IncidenceStructure(1, good.n, merged))

        ids = rng.sample(range(declared), 5)
        sparse = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[3]), (ids[3], ids[4])]
        sparse_text = write_acc("sparse.acc", ak.IncidenceStructure(1, declared, sparse))

        wedge = ak.WedgeSpec(family.m + 1, family.beams)
        (work / "nonclosing.wedge").write_text(ak.serialize_wedge(wedge))
        red, blue = family.beams
        events = list(red.events)
        side = rng.choice((ak.wedge.TOP, ak.wedge.BOTTOM))
        i, k = rng.sample([i for i, e in enumerate(events) if e.side == side], 2)
        events[i], events[k] = (
            ak.BounceEvent(side, events[k].rank),
            ak.BounceEvent(side, events[i].rank),
        )
        crossing = ak.WedgeSpec(family.m, (ak.BeamSpec(red.name, events), blue))
        (work / "selfcrossing.wedge").write_text(ak.serialize_wedge(crossing))

        n = REFUSED_SIMPLE_N
        both = ak.gen_pencil(n).vertices + ak.gen_simple_cyclic(n).vertices
        write_acc("refused.acc", ak.IncidenceStructure(2, n, both))

        (work / "bad_header.acc").write_text(sparse_text.replace("acc 1", "acc 2", 1))
        wedge_rows = ak.serialize_wedge(family).splitlines(keepends=True)
        wedge_rows[1] = f"m {family.m}x\n"
        (work / "bad_order.wedge").write_text("".join(wedge_rows))
        wedge_rows = ak.serialize_wedge(family).splitlines(keepends=True)
        tokens = wedge_rows[3].split()
        spot = rng.randrange(2, len(tokens))
        tokens[spot] = "X" + tokens[spot][1:]
        wedge_rows[3] = " ".join(tokens) + "\n"
        (work / "bad_token.wedge").write_text("".join(wedge_rows))
        acc_rows = ak.serialize_structure(good).splitlines(keepends=True)
        row = rng.randrange(3, len(acc_rows))
        acc_rows[row] = f"{acc_rows[row].rstrip()} {good.n + rng.randrange(1000)}\n"
        (work / "out_of_range.acc").write_text("".join(acc_rows))

    invalid, any_error = fails_with("invalid"), fails_with("")
    jobs = []
    for name in ("dropped", "duplicated", "merged"):
        jobs += [
            Job(f"validate.{name}", (_stage("validate", f"{name}.acc"),), invalid, expect=1),
            Job(f"stats.{name}", (_stage("stats", f"{name}.acc"),), invalid, expect=1),
            Job(f"dirac.{name}", (_stage("audit", "dirac", f"{name}.acc"),), invalid, expect=1),
        ]
    jobs += [
        Job(f"validate.lines{declared}", (_stage("validate", "sparse.acc"),), invalid, expect=1),
        Job("expand.nonclosing", (_stage("expand", "nonclosing.wedge"),), fails_with("close"), expect=1),
        Job("stats.nonclosing", (_stage("stats", "nonclosing.wedge"),), fails_with("close"), expect=1),
        Job("expand.selfcrossing", (_stage("expand", "selfcrossing.wedge"),), fails_with("cross"), expect=1),
        Job("stats.selfcrossing", (_stage("stats", "selfcrossing.wedge"),), fails_with("cross"), expect=1),
        Job("dirac.refused", (_stage("audit", "dirac", "refused.acc"),), fails_with("budget"), expect=2),
        Job("validate.bad_header", (_stage("validate", "bad_header.acc"),), fails_with("header"), expect=2),
        Job("expand.bad_order", (_stage("expand", "bad_order.wedge"),), fails_with("dihedral"), expect=2),
        Job("expand.bad_token", (_stage("expand", "bad_token.wedge"),), fails_with("bounce"), expect=2),
        Job("stats.out_of_range", (_stage("stats", "out_of_range.acc"),), fails_with("out of range"), expect=2),
        Job("gen.bad_j", (_stage("gen", "family", "--j", 0),), any_error, expect=2),
    ]
    return Workload("invalid_inputs", f"validate.lines{declared}", tuple(jobs), write_inputs)


WORKLOADS = {w.__name__: w for w in (family_cli, planes, invalid_inputs)}
