"""Command-line front door: generators, expansion, validation, audits,
finite planes, and rendering, wired for shell pipelines.

Subcommands that read an IN argument accept "-" for standard input.  The
structure-consuming commands (validate, stats, audit) detect the input
format from its header, so "acckit gen family --j 1 | acckit stats" works
directly, and read a .wedge on its rotation quotient, building no record.

Exit codes: 0 when everything requested holds, 1 when a check fails or a
structure is invalid, 2 for usage or input errors and unwritable output.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import groupby
from typing import TYPE_CHECKING

from . import formats
from .family import family_wedge, gen_near_pencil, gen_pencil, gen_simple_cyclic
from .limits import SizeLimitExceeded
from .plane import pg2, sample_lines, structure_from_lines
from .structure import ExpansionError, InvalidStructureError, Stats, compute_stats, validate

if TYPE_CHECKING:
    from fractions import Fraction

    from .audits import DyadicWindowReport
    from .wedge import ExpandedArrangement, WedgeSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def expand(spec: WedgeSpec) -> ExpandedArrangement:
    """wedge.expand.  wedge.py, like audits.py and render.py, is imported
    by the code that runs it, so each command loads only its own modules;
    the traced benchmark wraps this global."""
    from . import wedge

    return wedge.expand(spec)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _census(text: str) -> tuple[int, int, Stats, ExpandedArrangement | None]:
    """alpha, n and Stats of a valid structure, and a .wedge's arrangement
    (None for a .acc), read on its rotation quotient without its records."""
    if formats.sniff_format(text) == "wedge":
        from .wedge import ExpandedArrangement

        arrangement = ExpandedArrangement(formats.parse_wedge(text))
        return 1, arrangement.n, arrangement.stats, arrangement
    s = formats.parse_structure(text)
    return s.alpha, s.n, compute_stats(s), None


def _emit(out_path: str | None, text: str):
    """Write text to out_path, or to stdout for None or "-"; stdout is
    flushed so that a failed write is reported here, not at exit."""
    try:
        if out_path and out_path != "-":
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            out_path = "stdout"
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}") from exc


def _fraction(value: str) -> Fraction:
    from fractions import Fraction

    # Fraction forms 10**exponent, so an exponent is bounded as int() bounds digits.
    limit = sys.get_int_max_str_digits()
    _, e, exponent = value.lower().rpartition("e")
    try:
        if limit and e and abs(int(exponent)) > limit:
            raise argparse.ArgumentTypeError(f"the exponent of {value!r} is over {limit}")
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/2, got {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress informational NOTE/NOTICE lines")

    parser = argparse.ArgumentParser(
        prog="acckit",
        description="pseudoline kaleidoscope and incidence-structure workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate wedges and structures")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    g_family = gen_sub.add_parser("family", parents=[common])
    g_family.add_argument("--j", type=int, required=True)

    for name in ("pencil", "near-pencil", "simple"):
        g = gen_sub.add_parser(name, parents=[common])
        g.add_argument("--n", type=int, required=True)

    g_pg2 = gen_sub.add_parser("pg2", parents=[common])
    g_pg2.add_argument("--p", type=int, required=True)
    lines = g_pg2.add_mutually_exclusive_group(required=True)
    lines.add_argument("--all", action="store_true")
    lines.add_argument("--n", type=int)
    g_pg2.add_argument("--seed", type=int, default=0)

    p_expand = sub.add_parser("expand", help="expand a wedge into a canonical .acc structure", parents=[common])
    p_expand.add_argument("input")

    p_validate = sub.add_parser("validate", help="check the structure axioms", parents=[common])
    p_validate.add_argument("input")

    p_stats = sub.add_parser("stats", help="exact statistics of a structure", parents=[common])
    p_stats.add_argument("input")
    p_stats.add_argument("--format", choices=("text", "machine"), default="text")

    p_audit = sub.add_parser("audit", help="run an exact audit")
    audit_sub = p_audit.add_subparsers(dest="audit", required=True)

    audit_parsers = {}
    for name in ("thm3", "dirac", "pairs", "dyadic", "dichotomy"):
        audit_parsers[name] = audit_sub.add_parser(name, parents=[common])
        audit_parsers[name].add_argument("input")
    audit_parsers["dyadic"].add_argument("--gamma", type=_fraction, required=True)
    audit_parsers["dyadic"].add_argument("--v", type=int, required=True)
    audit_parsers["dichotomy"].add_argument("--fraction", type=_fraction, required=True)

    p_render = sub.add_parser("render", help="emit an SVG diagram")
    render_sub = p_render.add_subparsers(dest="target", required=True)
    for target in ("wedge", "arrangement"):
        r = render_sub.add_parser(target, parents=[common])
        r.add_argument("input")

    return parser


def _cmd_gen(args) -> tuple[int, str]:
    if args.generator == "family":
        if args.j < 1:
            raise _UsageError("--j must be >= 1")
        return EXIT_OK, formats.serialize_wedge(family_wedge(args.j))
    if args.generator == "pencil":
        return EXIT_OK, formats.serialize_structure(gen_pencil(args.n))
    if args.generator == "near-pencil":
        return EXIT_OK, formats.serialize_structure(gen_near_pencil(args.n))
    if args.generator == "simple":
        return EXIT_OK, formats.serialize_structure(gen_simple_cyclic(args.n))
    if args.generator == "pg2":
        plane = pg2(args.p)
        ids = range(len(plane.lines)) if args.all else sample_lines(plane, args.n, args.seed)
        return EXIT_OK, formats.serialize_structure(structure_from_lines(plane, ids))
    raise AssertionError(args.generator)


def _cmd_validate(args) -> tuple[int, str]:
    text = _read_input(args.input)
    if formats.sniff_format(text) == "wedge":
        _, n, stats, _ = _census(text)
        return EXIT_OK, f"valid alpha=1 n={n} vertices={sum(stats.tk.values())}\n"
    s = formats.parse_structure(text)
    report = validate(s)
    lines = []
    if report.valid:
        lines.append(f"valid alpha={s.alpha} n={s.n} vertices={len(s.vertices)}")
        code = EXIT_OK
    else:
        lines.append(f"invalid alpha={s.alpha} n={s.n} violations={sum(report.counts.values())}")
        for kind, examples in groupby(report.violations, lambda violation: type(violation).__name__):
            shown = [f"  {violation}" for violation in examples]
            lines += shown
            more = report.counts[kind] - len(shown)
            if more:
                lines.append(f"  ... and {more} more {kind}")
        code = EXIT_CHECK_FAILED
    return code, "\n".join(lines) + "\n"


def _cmd_stats(args) -> tuple[int, str]:
    alpha, n, stats, _ = _census(_read_input(args.input))
    vertices = sum(stats.tk.values())
    lines = []
    if args.format == "machine":
        lines.append(f"STAT alpha {alpha}")
        lines.append(f"STAT n {n}")
        lines.append(f"STAT vertices {vertices}")
        lines.append(f"STAT r {stats.r}")
        for k, count in stats.tk.items():
            lines.append(f"TK {k} {count}")
        for d, count in stats.ld.items():
            lines.append(f"LD {d} {count}")
    else:
        lines.append(f"alpha = {alpha}, n = {n}, vertices = {vertices}")
        lines.append(f"max curve degree r = {stats.r}")
        lines.append("t_k (vertices of degree k): " + ", ".join(f"t_{k}={c}" for k, c in stats.tk.items()))
        lines.append("l_d (pairs with min common-vertex degree d): " + ", ".join(f"l_{d}={c}" for d, c in stats.ld.items()))
    return EXIT_OK, "\n".join(lines) + "\n"


def _frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _check(lines: list[str], name: str, holds: bool, margin: str) -> bool:
    """Append one CHECK line; return True when the check fails."""
    lines.append(f"CHECK {name} {'holds' if holds else 'fails'} {margin}")
    return not holds


def _printable_lower(report: DyadicWindowReport) -> str:
    """The window's lower bound as text, refused when it has more decimal
    digits than Python turns into text (sys.get_int_max_str_digits(), 0 for
    no limit): by its bit length well past the limit, without forming it,
    and otherwise by str(), which raises ValueError exactly then."""
    limit = sys.get_int_max_str_digits()
    refusal = f"--v {report.v} makes the dyadic window's lower bound longer than {limit} digits"
    if limit and report.v + report.root.bit_length() > limit * math.log2(10) + 4:
        raise _UsageError(refusal)
    try:
        return str(report.lower)
    except ValueError:
        raise _UsageError(refusal) from None


def _cmd_audit(args) -> tuple[int, str]:
    if args.audit != "pairs":
        from . import audits

    text = _read_input(args.input)
    if args.audit in ("dirac", "dichotomy") and formats.sniff_format(text) != "wedge":
        # The subset search reads the records; each report validates them.
        s = formats.parse_structure(text)
        report = audits.audit_dirac(s) if args.audit == "dirac" else audits.dichotomy_report(s, args.fraction)
    else:
        alpha, n, stats, arrangement = _census(text)
        vertices = sum(stats.tk.values())
        if args.audit == "dirac":
            audits.check_subset_budget(vertices, alpha)
            report = audits.DiracAuditReport(alpha, n, stats.r, *arrangement.largest())
        elif args.audit == "dichotomy":
            fraction = audits.dichotomy_fraction(args.fraction)
            audits.check_subset_budget(vertices, alpha)
            report = audits.DichotomyReport(alpha, n, *arrangement.largest(), fraction, vertices)
    lines: list[str] = []
    failed = False

    if args.audit == "pairs":
        # Each of the C(n, 2) curve pairs has one least common-vertex degree.
        observed, expected = stats.ld_total(), math.comb(n, 2)
        failed |= _check(lines, "pairs", observed == expected, f"{observed}/{expected}")

    elif args.audit == "thm3":
        report = audits.audit_tk_bounds(stats, alpha, n)
        for entry in report.entries:
            if entry.tk == 0:
                continue
            failed |= _check(lines, f"thm3.part1.k{entry.k}", entry.holds1, _frac_text(entry.margin1))
            if entry.bound2_applicable:
                failed |= _check(lines, f"thm3.part2.k{entry.k}", entry.holds2, _frac_text(entry.margin2))
        failed |= _check(lines, "thm3.part1", report.part1_holds, _frac_text(report.part1_min_margin()))
        margin2 = report.part2_min_margin()
        margin2_text = _frac_text(margin2) if margin2 is not None else "0/1"
        failed |= _check(lines, "thm3.part2", report.part2_holds, margin2_text)

    elif args.audit == "dirac":
        witness = ",".join(str(i) for i in report.witness_subset)
        if not report.hypothesis_holds:
            if not args.quiet:
                lines.append(f"NOTICE dirac hypothesis_violated witness={witness} covers all {report.n} curves")
        else:
            failed |= _check(lines, "dirac.g_ge_h", report.g_ge_h, f"{report.g_margin}/1")
            failed |= _check(lines, "dirac.binom", report.binom_ineq_holds, f"{report.binom_margin}/1")
            if not args.quiet:
                lines.append(f"NOTE dirac g={report.g} h={report.h} witness={witness}")

    elif args.audit == "dyadic":
        report = audits.dyadic_profile(stats, n, args.gamma, args.v)
        if not args.quiet:
            lines.append(f"NOTE dyadic window {_printable_lower(report)} {report.upper}")
            lines.append(f"NOTE dyadic empty {'true' if report.empty_window else 'false'}")
            lines.append(f"NOTE dyadic below {report.below}")
            lines.append(f"NOTE dyadic inside {report.inside}")
            lines.append(f"NOTE dyadic above {report.above}")
        expected = math.comb(n, 2)
        failed |= _check(lines, "dyadic.total", report.total == expected, f"{report.total}/{expected}")

    elif args.audit == "dichotomy":
        witness = ",".join(str(i) for i in report.witness_subset)
        if not args.quiet:
            lines.append(f"NOTE dichotomy branch {report.branch}")
            lines.append(f"NOTE dichotomy coverage {report.coverage}/{report.n}")
            lines.append(f"NOTE dichotomy witness {witness}")
            lines.append(f"NOTE dichotomy vertices {report.vertex_count}")

    code = EXIT_CHECK_FAILED if failed else EXIT_OK
    return code, ("\n".join(lines) + "\n") if lines else ""


def _cmd_expand(args) -> tuple[int, str]:
    spec = formats.parse_wedge(_read_input(args.input))
    return EXIT_OK, formats.serialize_structure(expand(spec).structure)


def _cmd_render(args) -> tuple[int, str]:
    from . import render

    spec = formats.parse_wedge(_read_input(args.input))
    if args.target == "wedge":
        return EXIT_OK, render.render_wedge(spec)
    return EXIT_OK, render.render_arrangement(spec)


_COMMANDS = {
    "gen": _cmd_gen,
    "expand": _cmd_expand,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "audit": _cmd_audit,
    "render": _cmd_render,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        code, text = _COMMANDS[args.command](args)
        _emit(args.out, text)
    except (_UsageError, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpansionError, InvalidStructureError) as exc:
        # InvalidStructureError is a ValueError, so it is caught first.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        # Input errors: ParseError, NotPrime and the generators' refusals.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)
