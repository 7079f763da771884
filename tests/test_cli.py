"""End-to-end CLI tests, including the documented pipelines."""

import ast
import contextlib
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acckit.cli
from acckit import (
    IncidenceStructure,
    expand,
    family_wedge,
    gen_pencil,
    gen_simple_cyclic,
    pg2,
    serialize_structure,
    serialize_wedge,
    structure_from_lines,
)
from acckit.cli import dispatch
from conftest import run_capped

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PENCIL3 = "acc 1\nalpha 1\nlines 3\nv 0 1 2\n"
INVALID = "acc 1\nalpha 1\nlines 3\nv 0 1\nv 0 1 2\n"


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_pipeline(stages, capsys, monkeypatch):
    """Run a '|' chain of acckit commands, feeding stdout into stdin."""
    text = None
    code = 0
    for stage in stages:
        code, text, _ = run_cli(stage, capsys, stdin_text=text, monkeypatch=monkeypatch)
    return code, text


def test_gen_family_stats_pipeline(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "family", "--j", "1"], ["stats", "-", "--format", "machine"]],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert "STAT n 25" in out
    assert "STAT r 10" in out


def test_pencil_dirac_pipeline(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "pencil", "--n", "5"], ["audit", "dirac", "-"]], capsys, monkeypatch
    )
    assert code == 0
    assert "hypothesis_violated" in out


def test_audit_pairs_line(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "family", "--j", "1"], ["audit", "pairs", "-"]], capsys, monkeypatch
    )
    assert code == 0
    assert out == "CHECK pairs holds 300/300\n"


def test_expand_then_validate(capsys, monkeypatch):
    code, wedge_text, _ = run_cli(["gen", "family", "--j", "1"], capsys)
    code, acc_text, _ = run_cli(["expand", "-"], capsys, wedge_text, monkeypatch)
    assert code == 0
    assert acc_text.startswith("acc 1\nalpha 1\nlines 25\n")
    code, out, _ = run_cli(["validate", "-"], capsys, acc_text, monkeypatch)
    assert code == 0
    assert out.startswith("valid")


def test_validate_invalid_exits_one(capsys, monkeypatch):
    bad = "acc 1\nalpha 1\nlines 3\nv 0 1\nv 0 1 2\n"
    code, out, _ = run_cli(["validate", "-"], capsys, bad, monkeypatch)
    assert code == 1
    assert "invalid" in out
    assert "PairMultiplicity" in out


def test_malformed_input_exits_two(capsys, monkeypatch):
    code, _, err = run_cli(["validate", "-"], capsys, "garbage\n", monkeypatch)
    assert code == 2
    assert "bad header" in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run_cli(["gen", "family", "--frobnicate", "1"], capsys)
    assert code == 2


def test_gen_family_rejects_bad_j(capsys):
    code, _, err = run_cli(["gen", "family", "--j", "0"], capsys)
    assert code == 2
    assert "--j" in err


def test_gen_pg2_all(capsys, monkeypatch):
    code, out, _ = run_cli(["gen", "pg2", "--p", "2", "--all"], capsys)
    assert code == 0
    assert out.startswith("acc 1\nalpha 1\nlines 7\n")
    code, out2, _ = run_cli(["stats", "-", "--format", "machine"], capsys, out, monkeypatch)
    assert "TK 3 7" in out2


def test_gen_pg2_sampled_deterministic(capsys):
    code, out1, _ = run_cli(["gen", "pg2", "--p", "7", "--n", "7", "--seed", "42"], capsys)
    code, out2, _ = run_cli(["gen", "pg2", "--p", "7", "--n", "7", "--seed", "42"], capsys)
    assert out1 == out2
    assert out1.startswith("acc 1\n")


def test_gen_pg2_composite_exits_two(capsys):
    code, _, err = run_cli(["gen", "pg2", "--p", "4", "--all"], capsys)
    assert code == 2
    assert "prime" in err


def test_gen_pg2_needs_all_or_n(capsys):
    code, _, err = run_cli(["gen", "pg2", "--p", "5"], capsys)
    assert code == 2
    code, out, err = run_cli(["gen", "pg2", "--p", "7", "--all", "--n", "3"], capsys)
    assert (code, out) == (2, "")
    assert "argument --n: not allowed with argument --all" in err


def test_audit_thm3(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "simple", "--n", "10"], ["audit", "thm3", "-"]], capsys, monkeypatch
    )
    assert code == 0
    assert "CHECK thm3.part1.k2 holds 0/1" in out
    assert "CHECK thm3.part1 holds" in out
    assert "CHECK thm3.part2 holds" in out
    assert "fails" not in out


def test_audit_dyadic(capsys, monkeypatch):
    code, out = run_pipeline(
        [
            ["gen", "family", "--j", "1"],
            ["audit", "dyadic", "-", "--gamma", "1/2", "--v", "1"],
        ],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert "NOTE dyadic window 10 12" in out
    assert "CHECK dyadic.total holds 300/300" in out


def test_audit_dyadic_quiet(capsys, monkeypatch):
    code, out = run_pipeline(
        [
            ["gen", "family", "--j", "1"],
            ["audit", "dyadic", "-", "--gamma", "0", "--v", "0", "--quiet"],
        ],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert "NOTE" not in out
    assert "CHECK dyadic.total holds" in out


def test_audit_dyadic_bad_gamma(capsys, monkeypatch):
    code, _, err = run_cli(
        ["audit", "dyadic", "-", "--gamma", "x/y", "--v", "1"], capsys, "acc 1\n", monkeypatch
    )
    assert code == 2


def test_audit_dichotomy(capsys, monkeypatch):
    code, out = run_pipeline(
        [
            ["gen", "family", "--j", "1"],
            ["audit", "dichotomy", "-", "--fraction", "8/25"],
        ],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert "NOTE dichotomy branch LargeCoverage" in out
    assert "NOTE dichotomy coverage 8/25" in out


def test_audit_dirac_margins(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "family", "--j", "1"], ["audit", "dirac", "-"]], capsys, monkeypatch
    )
    assert code == 0
    assert "CHECK dirac.g_ge_h holds 2/1" in out
    assert "CHECK dirac.binom holds" in out


def test_budget_env_var(capsys, monkeypatch, tmp_path):
    acc = "acc 1\nalpha 2\nlines 4\nv 0 1 2\nv 0 1 3\nv 0 2 3\nv 1 2 3\n"
    path = tmp_path / "quad.acc"
    path.write_text(acc, encoding="utf-8")
    monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", "3")
    code, _, err = run_cli(["audit", "dirac", str(path)], capsys)
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", "1000")
    code, out, _ = run_cli(["audit", "dirac", str(path)], capsys)
    assert code == 0


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "family.wedge"
    code, out, _ = run_cli(["gen", "family", "--j", "1", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("wedge 1\n")


def test_render_cli(capsys, monkeypatch, tmp_path):
    code, wedge_text, _ = run_cli(["gen", "family", "--j", "1"], capsys)
    out_path = tmp_path / "arr.svg"
    code, _, _ = run_cli(
        ["render", "arrangement", "-", "--out", str(out_path)], capsys, wedge_text, monkeypatch
    )
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    ET.fromstring(svg)
    assert svg.count("<polyline") == 25

    code, wedge_svg, _ = run_cli(["render", "wedge", "-"], capsys, wedge_text, monkeypatch)
    assert code == 0
    ET.fromstring(wedge_svg)


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["stats", "/nonexistent/nowhere.acc"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_cli_outputs_deterministic(capsys, monkeypatch):
    runs = []
    for _ in range(2):
        code, out = run_pipeline(
            [["gen", "family", "--j", "2"], ["expand", "-"]], capsys, monkeypatch
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_expansion_error_exits_one(capsys, monkeypatch):
    bad_wedge = "wedge 1\nm 3\nbeam z T1\n"
    code, _, err = run_cli(["expand", "-"], capsys, bad_wedge, monkeypatch)
    assert code == 1
    assert "close" in err


@pytest.mark.parametrize("target", ["wedge", "arrangement"])
def test_render_rank_underflow_exits_two(capsys, monkeypatch, target):
    # Both ranks' radii underflow to 0.0 as floats, so the drawing cannot
    # keep their order; that is an input error, not a crash.
    wedge = "wedge 1\nm 4\nbeam a T3400 B3401\n"
    code, out, err = run_cli(["render", target, "-"], capsys, wedge, monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: radius map must preserve rank order\n"


def test_huge_order_non_closing_wedge_exits_before_allocating(tmp_path):
    """m = 10^8 with a 3-bounce beam: closure fails (m does not divide 6),
    which must be found before anything of size m is built.  Never run this
    input without the cap."""
    path = tmp_path / "huge.wedge"
    path.write_text("wedge 1\nm 100000000\nbeam a T1 B2 T3\n")
    result = run_capped(["expand", str(path)])
    assert result.returncode == 1
    assert "close" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [["expand", "{wedge}"], ["stats", "{wedge}"], ["validate", "{wedge}"], ["gen", "family", "--j", "100000000"]],
)
def test_oversized_expansion_refused_before_allocating(tmp_path, argv):
    """The beamless m = 10^8 wedge and family j = 10^8 exceed the default
    expansion budget, which is checked by closed form before anything is
    built.  Never run these inputs without the cap."""
    path = tmp_path / "beamless.wedge"
    path.write_text("wedge 1\nm 100000000\n")
    result = run_capped([arg.format(wedge=path) for arg in argv])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: expansion needs ")
    assert "raise ACCKIT_EXPAND_BUDGET to proceed" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [["validate"], ["stats"], ["audit", "pairs"]])
def test_beamless_wedge_size_counts_apex_and_ideal_records(tmp_path, argv):
    """A beamless wedge builds no beam atoms, only the m-id apex record and
    m ideal records, which the expansion size weighs at 6 units a mirror:
    m = 9,999,999 ran out of a 1 GiB address space when only the m mirrors
    were counted, and is now refused; the largest m admitted, 1,666,666,
    exits 0 within 320 MiB, as its quotient builds no row for the line at
    infinity, which lies on every ideal record (with that row it peaked at
    379 MiB).  Never run these inputs without the cap."""
    refused, admitted = tmp_path / "refused.wedge", tmp_path / "admitted.wedge"
    refused.write_text("wedge 1\nm 9999999\n")
    admitted.write_text("wedge 1\nm 1666666\n")
    result = run_capped([*argv, str(refused)])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: expansion needs 59999994 units (6 per mirror, 1 per beam atom), budget is 10000000;"
        " raise ACCKIT_EXPAND_BUDGET to proceed\n"
    )
    result = run_capped([*argv, str(admitted)], cap=320 << 20)
    assert (result.returncode, result.stderr) == (0, "")


def test_family_budget_edge():
    """Family j = 372 (m = 2,234, size 9,994,916) is the largest the default
    budget admits; j = 373 is refused."""
    assert run_capped(["gen", "family", "--j", "372"]).returncode == 0
    result = run_capped(["gen", "family", "--j", "373"])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: expansion needs 10048640 units")


def test_expand_budget_from_env(capsys, monkeypatch):
    # Family j = 1: m = 8 mirrors at 6 units each and 2 * 8 * 8 beam atoms.
    _, wedge_text, _ = run_cli(["gen", "family", "--j", "1"], capsys)
    monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", "176")
    assert run_cli(["audit", "pairs", "-"], capsys, wedge_text, monkeypatch)[:2] == (0, "CHECK pairs holds 300/300\n")
    assert run_cli(["gen", "family", "--j", "1"], capsys)[:2] == (0, wedge_text)
    monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", "175")
    refusal = (
        "error: expansion needs 176 units (6 per mirror, 1 per beam atom), budget is 175;"
        " raise ACCKIT_EXPAND_BUDGET to proceed\n"
    )
    assert run_cli(["expand", "-"], capsys, wedge_text, monkeypatch) == (2, "", refusal)
    assert run_cli(["gen", "family", "--j", "1"], capsys) == (2, "", refusal)
    for value, fragment in (("x", "must be an integer, got 'x'"), ("0", "must be >= 1, got 0")):
        monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", value)
        code, out, err = run_cli(["stats", "-"], capsys, wedge_text, monkeypatch)
        assert (code, out, err) == (2, "", f"error: ACCKIT_EXPAND_BUDGET {fragment}\n")
    # Closure is decided first, so a non-closing beam still exits 1.
    code, _, err = run_cli(["expand", "-"], capsys, "wedge 1\nm 3\nbeam z T1\n", monkeypatch)
    assert code == 1 and "close" in err


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["gen", "pencil", "--n", "1000000000"], "pencil needs 1000000000 curves"),
        (["gen", "near-pencil", "--n", "1000000000"], "near-pencil needs 1000000000 curves"),
        (["gen", "simple", "--n", "100000"], "simple arrangement needs 4999950000 vertices"),
        (["gen", "pg2", "--p", "1000003", "--n", "3"], "PG(2, 1000003) needs 1000007000013 points"),
    ],
)
def test_oversized_generators_refused_before_allocating(argv, needs):
    """Each generator sizes its output by closed form (n, n, C(n, 2) and
    p^2+p+1) and refuses it over the default budget before building
    anything; pg2 does so before testing p for primality.  Never run these
    inputs without the cap."""
    result = run_capped(argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {needs}, budget is 10000000; raise ACCKIT_EXPAND_BUDGET to proceed\n"


def test_generator_budget_from_env(capsys, monkeypatch):
    cases = [
        (["gen", "pencil", "--n", "5"], "pencil needs 5 curves"),
        (["gen", "near-pencil", "--n", "5"], "near-pencil needs 5 curves"),
        (["gen", "simple", "--n", "5"], "simple arrangement needs 10 vertices"),
        (["gen", "pg2", "--p", "3", "--all"], "PG(2, 3) needs 13 points"),
    ]
    for argv, needs in cases:
        size = int(needs.split()[-2])
        monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", str(size))
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and out.startswith("acc 1\n")
        monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", str(size - 1))
        refusal = f"error: {needs}, budget is {size - 1}; raise ACCKIT_EXPAND_BUDGET to proceed\n"
        assert run_cli(argv, capsys) == (2, "", refusal)
    # Size comes before primality: PG(2, 4) would have 21 points.
    monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", "20")
    refusal = "error: PG(2, 4) needs 21 points, budget is 20; raise ACCKIT_EXPAND_BUDGET to proceed\n"
    assert run_cli(["gen", "pg2", "--p", "4", "--all"], capsys) == (2, "", refusal)
    monkeypatch.setenv("ACCKIT_EXPAND_BUDGET", "21")
    assert run_cli(["gen", "pg2", "--p", "4", "--all"], capsys) == (2, "", "error: p must be prime, got 4\n")


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_write_error_exits_two(capsys, tmp_path, target):
    path = tmp_path / "no" / "x.acc" if target == "missing directory" else tmp_path
    code, out, err = run_cli(["gen", "pencil", "--n", "4", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: [Errno ")
    assert err.endswith(f"'{path}'\n") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["gen", "pencil", "--n", "4"], ["gen", "simple", "--n", "300"]])
def test_stdout_write_error_exits_two(argv):
    """A failed write to stdout, small or larger than any buffer, is an
    error line and exit 2, not a traceback at the write or at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(acckit.cli.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "acckit", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    assert result.returncode == 2
    assert result.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_subset_budget_read_only_by_subset_audits(capsys, monkeypatch):
    monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", "x")
    code, out, _ = run_cli(["audit", "pairs", "-"], capsys, PENCIL3, monkeypatch)
    assert (code, out) == (0, "CHECK pairs holds 3/3\n")
    code, _, err = run_cli(["audit", "dirac", "-"], capsys, PENCIL3, monkeypatch)
    assert code == 2
    assert "ACCKIT_SUBSET_BUDGET must be an integer" in err


def test_subset_audits_skip_stats(capsys, monkeypatch):
    _, wedge_text, _ = run_cli(["gen", "family", "--j", "1"], capsys)
    commands = (["audit", "dirac", "-"], ["audit", "dichotomy", "-", "--fraction", "8/25"])
    before = [run_cli(argv, capsys, wedge_text, monkeypatch) for argv in commands]

    def refuse(s):
        raise AssertionError("compute_stats called")

    monkeypatch.setattr(acckit.cli, "compute_stats", refuse)
    after = [run_cli(argv, capsys, wedge_text, monkeypatch) for argv in commands]
    assert after == before
    assert [code for code, _, _ in after] == [0, 0]


@pytest.mark.parametrize(
    "text, argv, budget, code, fragment",
    [
        (INVALID, ["audit", "dichotomy", "-", "--fraction", "2"], None, 1, "invalid incidence structure"),
        (INVALID, ["audit", "dirac", "-"], "x", 1, "invalid incidence structure"),
        ("acc 1\nalpha 1\nlines 1\n", ["audit", "dirac", "-"], "x", 2, "at least 2 curves"),
    ],
)
def test_audit_error_precedence(capsys, monkeypatch, text, argv, budget, code, fragment):
    if budget is not None:
        monkeypatch.setenv("ACCKIT_SUBSET_BUDGET", budget)
    got, _, err = run_cli(argv, capsys, text, monkeypatch)
    assert got == code
    assert fragment in err


def test_stats_audits_report_invalid_structure_first(capsys, monkeypatch):
    """The audits that read stats report an invalid structure (exit 1);
    dyadic reports it ahead of its bad parameters (exit 2).
    test_audit_error_precedence covers dirac and dichotomy."""
    commands = (
        ["audit", "thm3", "-"],
        ["audit", "pairs", "-"],
        ["audit", "dyadic", "-", "--gamma", "3/2", "--v", "-1"],
    )
    for argv in commands:
        code, out, err = run_cli(argv, capsys, INVALID, monkeypatch)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: invalid incidence structure"), argv


def _bench_cli_hooks() -> list[str]:
    """acckit.cli attributes that the traced benchmark wraps (bench/spans.py PATCHES)."""
    for node in ast.parse(BENCH_SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            patches = ast.literal_eval(node.value)
            return [attr for module, attr, _ in patches if module == "acckit.cli"]
    raise AssertionError("no PATCHES in bench/spans.py")


def test_bench_hooks_are_called_through_cli_globals(capsys, monkeypatch, tmp_path):
    wedge = tmp_path / "j1.wedge"
    acc = tmp_path / "j1.acc"
    run_cli(["gen", "family", "--j", "1", "--out", str(wedge)], capsys)
    run_cli(["expand", str(wedge), "--out", str(acc)], capsys)
    commands = {
        "validate": ["validate", str(acc)],
        "compute_stats": ["stats", str(acc)],
        "expand": ["expand", str(wedge)],
        "pg2": ["gen", "pg2", "--p", "3", "--n", "4"],
        "sample_lines": ["gen", "pg2", "--p", "3", "--n", "4"],
        "structure_from_lines": ["gen", "pg2", "--p", "3", "--n", "4"],
        "family_wedge": ["gen", "family", "--j", "1"],
        "gen_pencil": ["gen", "pencil", "--n", "4"],
        "gen_near_pencil": ["gen", "near-pencil", "--n", "4"],
        "gen_simple_cyclic": ["gen", "simple", "--n", "4"],
    }
    hooks = _bench_cli_hooks()
    assert hooks
    for name in hooks:
        calls = []
        original = getattr(acckit.cli, name)

        def recording(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(acckit.cli, name, recording)
            code, _, _ = run_cli(commands[name], capsys)
        assert code == 0, name
        assert calls, f"acckit.cli.{name} was not called through the module global"


ALPHA2_COMMANDS = (
    ("audit", "dirac", "-"),
    ("audit", "dichotomy", "-", "--fraction", "1/2"),
    ("audit", "thm3", "-"),
    ("audit", "pairs", "-"),
    ("stats", "-", "--format", "text"),
    ("stats", "-", "--format", "machine"),
)

# sha256 of "<exit code>\n<stdout>" for each of ALPHA2_COMMANDS, in order, on
# PG(2, p) plus a pencil vertex; recorded from the pair-by-pair and
# subset-by-subset implementations of stats and the subset search.
ALPHA2_GOLDEN = {
    5: (
        "d90ab19219012165b0f131747ee05ae31a9dc5a8e79371b12bbcb190293888b8",
        "1b820221a444911966b2961454203f47da0c31d954e94a722fc5c451f6d61fa0",
        "1ea6662706140b19ae0f93f2812e4b77754e299b809815630066ed60a4f93680",
        "4412da64ac7680fc4ce1f0321b12ba9653d0c603f711fc7ebe5128081795e70a",
        "69b5e9fdbba1781f7231f703cca7a0b6a9ca61a8905029158822730792b429ae",
        "38f9877cbfb6ad27c56dd7b6f33a3d9e786ba911c8d736864065af427690f2cd",
    ),
    11: (
        "b395a318d738a580eac9f5c89315949fe4789e15aae4ffb588f09a49aec32d85",
        "720a222727976bd0090ef81e64f04f5ae7cb6cdcd59d4916c0bf38d03fe7ec3b",
        "102c67d2c4dc174ebb64efc5a0e4d7c6652d7d7337221a5554c53379eb8d70d0",
        "0ba61790273bece4491a01b6975363a0e46c9a27f60c25b6d41ae5ff2bbada68",
        "91621443ad954f2aa240c49abf51e7c9cea76139912da58b601ab55175887e02",
        "50668070dac921977da9f6cf1541109e11188fa49007500fc30d6c7ee953059f",
    ),
    31: (
        "cb5af7e35320749eeb6cc0222e4ae46fbb3ab42f96fddd983b7120a2614b38ff",
        "97604b057e0bc60db8864cfc47e17f7dd591d511f54c8d84028ff2f020683672",
        "3322e103a6a4cac8ea38b47ff3cd4c9ffeaf5b45682c8ace1e6e3a0f018f140f",
        "e57370845dd04cc6e3c3e70d33914389f20d593da0248f958e2d9b209cc8a3e5",
        "ea4a3b9d959fc9d0358831d2ad250d72ac10bce3e73105df11c3caec6444b0da",
        "b06e31c22cda883817896211f1e500f93ed4dd9d098657777274e4302476caa1",
    ),
}


@pytest.mark.parametrize("p", sorted(ALPHA2_GOLDEN))
def test_alpha_two_outputs_match_golden(capsys, monkeypatch, p):
    n = p * p + p + 1
    plane = structure_from_lines(pg2(p), range(n))
    text = serialize_structure(IncidenceStructure(2, n, plane.vertices + gen_pencil(n).vertices))
    digests = []
    for argv in ALPHA2_COMMANDS:
        code, out, err = run_cli(list(argv), capsys, text, monkeypatch)
        assert err == "", argv
        digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
    assert tuple(digests) == ALPHA2_GOLDEN[p]


# sha256 of "<exit code>\n<stdout>" for `audit dirac -` and
# `stats - --format machine` on PG(2, 61) plus a pencil vertex, recorded
# before validate and compute_stats read the pencil apart from the plane.
PG61_GOLDEN = (
    "a02c1cdad2d4a634a49f81e7f3e31bc5a6953121b07fa84848de5927b00e575c",
    "7eefebf06e506ea8a5f394daa0e106bd59adc9981307b435e4f867d8eb217ca5",
)


def test_alpha_two_pg61_outputs_match_golden(capsys, monkeypatch):
    n = 61 * 61 + 61 + 1
    plane = structure_from_lines(pg2(61), range(n))
    text = serialize_structure(IncidenceStructure(2, n, plane.vertices + gen_pencil(n).vertices))
    digests = []
    for argv in (["audit", "dirac", "-"], ["stats", "-", "--format", "machine"]):
        code, out, err = run_cli(argv, capsys, text, monkeypatch)
        assert err == "", argv
        digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
    assert tuple(digests) == PG61_GOLDEN


def test_alpha_two_subset_refusal_text(capsys, monkeypatch):
    n = 150
    both = gen_pencil(n).vertices + gen_simple_cyclic(n).vertices
    text = serialize_structure(IncidenceStructure(2, n, both))
    for argv in (["audit", "dirac", "-"], ["audit", "dichotomy", "-", "--fraction", "1/2"]):
        assert run_cli(argv, capsys, text, monkeypatch) == (
            2,
            "",
            "error: subset search needs 62445900 evaluations, budget is 10000000;"
            " raise ACCKIT_SUBSET_BUDGET to proceed\n",
        )


EXAMPLES = 20  # violations listed per kind
CHAIN = [(0, 1), (1, 2), (2, 3), (3, 4)]

# Recorded before validate listed only the first examples of each kind.
CHAIN_INVALID = {
    1: "Disconnected x1, PairMultiplicity x499499, UnusedCurve x998",
    2: "Disconnected x1, PairMultiplicity x499498, UnusedCurve x997",
    3: "Disconnected x1, PairMultiplicity x499497, UnusedCurve x996",
    4: "Disconnected x1, PairMultiplicity x499496, UnusedCurve x995",
}


@pytest.mark.parametrize("records", sorted(CHAIN_INVALID))
@pytest.mark.parametrize("argv", [["stats", "-"], ["audit", "dirac", "-"]])
def test_invalid_structure_message_counts_every_violation(capsys, monkeypatch, records, argv):
    text = serialize_structure(IncidenceStructure(1, 1000, CHAIN[:records]))
    expected = f"error: invalid incidence structure: {CHAIN_INVALID[records]}\n"
    assert run_cli(argv, capsys, text, monkeypatch) == (1, "", expected)


def test_long_report_lists_first_examples_of_each_kind(capsys, monkeypatch):
    text = serialize_structure(IncidenceStructure(1, 1000, CHAIN))
    code, out, err = run_cli(["validate", "-"], capsys, text, monkeypatch)
    expected = [
        "invalid alpha=1 n=1000 violations=500492",
        *(f"  UnusedCurve(id={cid})" for cid in range(5, 25)),
        "  ... and 975 more UnusedCurve",
        *(f"  PairMultiplicity(pair=(0, {j}), observed=0)" for j in range(2, 22)),
        "  ... and 499476 more PairMultiplicity",
        "  Disconnected(components=996)",
    ]
    assert (code, out.splitlines(), err) == (1, expected, "")


def test_short_reports_unchanged(capsys, monkeypatch):
    """Reports with at most EXAMPLES violations of each kind read as when
    every violation was listed; one more adds a single count line."""
    assert run_cli(["validate", "-"], capsys, INVALID, monkeypatch) == (
        1,
        "invalid alpha=1 n=3 violations=1\n  PairMultiplicity(pair=(0, 1), observed=2)\n",
        "",
    )
    for repeats in (EXAMPLES, EXAMPLES + 1):
        text = serialize_structure(IncidenceStructure(1, 3, [(0, 1)] * (repeats + 1) + [(0, 2), (1, 2)]))
        code, out, _ = run_cli(["validate", "-"], capsys, text, monkeypatch)
        expected = [f"invalid alpha=1 n=3 violations={repeats + 1}"]
        expected += [f"  DuplicateVertex(indices=(0, {i}))" for i in range(1, EXAMPLES + 1)]
        expected += ["  ... and 1 more DuplicateVertex"] * (repeats - EXAMPLES)
        expected += [f"  PairMultiplicity(pair=(0, 1), observed={repeats + 1})"]
        assert (code, out) == (1, "\n".join(expected) + "\n")


def crossing_wedge(beams):
    """m = 2 with pairwise-crossing two-bounce beams: b<i> bounces at top
    rank i and bottom rank beams + 1 - i.  Its expansion repeats records
    and meets pairs more than once."""
    return "wedge 1\nm 2\n" + "".join(f"beam b{i} T{i} B{beams + 1 - i}\n" for i in range(1, beams + 1))


def test_failed_expansion_message_counts_every_violation(tmp_path):
    """319,600 DuplicateVertex and 321,200 PairMultiplicity violations."""
    path = tmp_path / "crossing.wedge"
    path.write_text(crossing_wedge(400))
    result = run_capped(["expand", str(path)])
    expected = "error: expanded arrangement failed validation with 640800 violation(s)\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, "", expected)


def test_many_beams_at_one_bounce_point(tmp_path):
    """2,000 one-bounce beams all at T1 of an m 2 wedge: every bounce
    record holds a copy of each beam, built in beam order, and the
    coincident copies give 3,998,000 PairMultiplicity violations."""
    path = tmp_path / "shared.wedge"
    path.write_text("wedge 1\nm 2\n" + "".join(f"beam b{i} T1\n" for i in range(2000)))
    result = run_capped(["expand", str(path)])
    expected = "error: expanded arrangement failed validation with 3998000 violation(s)\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, "", expected)


def test_sparse_structure_report_is_bounded(tmp_path):
    """Three records under 'lines 3000' fail 4.5M pairs; listing them all
    ran out of a 1 GiB address space.  Never run this input without the cap."""
    path = tmp_path / "sparse.acc"
    path.write_text("acc 1\nalpha 1\nlines 3000\nv 0 1\nv 1 2\nv 2 3\n")
    result = run_capped(["validate", str(path)])
    lines = result.stdout.splitlines()
    assert result.returncode == 1
    assert lines[0] == "invalid alpha=1 n=3000 violations=4501494"
    assert len(lines) <= 4 * (EXAMPLES + 1) + 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("n", [9_999_999, 10**21])
@pytest.mark.parametrize("argv", [["validate"], ["stats"], ["audit", "dirac"]])
def test_huge_declared_line_count_is_bounded_by_the_records(tmp_path, argv, n):
    """One record 'v 0 1' under 'lines n': n - 2 unused curves, C(n, 2) - 1
    pairs that never meet and one disconnection.  Indexing every declared
    curve ran out of a 1 GiB address space at n = 9,999,999 and never
    finished at n = 10^21.  Never run these inputs without the cap."""
    path = tmp_path / "sparse.acc"
    path.write_text(f"acc 1\nalpha 1\nlines {n}\nv 0 1\n")
    result = run_capped([*argv, str(path)])
    total = math.comb(n, 2) + n - 2
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    if argv == ["validate"]:
        assert result.stdout.splitlines()[0] == f"invalid alpha=1 n={n} violations={total}"
        assert result.stdout.splitlines()[-1] == f"  Disconnected(components={n - 1})"
    else:
        kinds = f"Disconnected x1, PairMultiplicity x{math.comb(n, 2) - 1}, UnusedCurve x{n - 2}"
        assert result.stderr == f"error: invalid incidence structure: {kinds}\n"


def test_large_failed_expansion_is_bounded(tmp_path):
    """The 800-beam crossing wedge fails 2.56M times; listing every violation
    ran out of a 1 GiB address space.  Never run this input without the cap."""
    path = tmp_path / "crossing.wedge"
    path.write_text(crossing_wedge(800))
    result = run_capped(["validate", str(path)])
    assert result.returncode in (1, 2)
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "v, quiet, code",
    [
        (100_000, False, 2),
        (300_000_000, True, 0),
        (10**9, False, 2),
        (10**9, True, 0),
        (10**30, False, 2),
        (10**30, True, 0),
    ],
)
def test_dyadic_huge_v_is_decided_by_bit_lengths(tmp_path, v, quiet, code):
    """For v >= n.bit_length() the window is empty and every l_d lies below
    it, which needs no 2^v; a lower bound too long to print is refused by
    its bit length.  --quiet --v 300000000 took 4.6 s, --v 10^9 18 s, and
    --v 100000 ended in Python's own int-to-str message.  Never run these
    inputs without the cap."""
    path = tmp_path / "j1.wedge"
    path.write_text(serialize_wedge(family_wedge(1)))
    start = time.perf_counter()
    result = run_capped(["audit", "dyadic", str(path), "--gamma", "1/2", "--v", str(v), *(["--quiet"] if quiet else [])])
    elapsed = time.perf_counter() - start
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 2:
        assert result.stderr == f"error: --v {v} makes the dyadic window's lower bound longer than 4300 digits\n"
    else:
        assert result.stdout == "CHECK dyadic.total holds 300/300\n"
    assert elapsed < 1.0


GAMMA_DENOMINATOR = 10**60


@pytest.mark.parametrize(
    "gamma, code, out, err",
    [
        (
            f"1/{GAMMA_DENOMINATOR}",
            0,
            "NOTE dyadic window 1 25\nNOTE dyadic empty false\nNOTE dyadic below 0\n"
            "NOTE dyadic inside 300\nNOTE dyadic above 0\nCHECK dyadic.total holds 300/300\n",
            "",
        ),
        (
            f"{GAMMA_DENOMINATOR - 1}/{GAMMA_DENOMINATOR}",
            2,
            "",
            f"error: 25^{GAMMA_DENOMINATOR - 1} needs {5 * (GAMMA_DENOMINATOR - 1)} bits, "
            "budget is 10000000; raise ACCKIT_EXPAND_BUDGET to proceed\n",
        ),
    ],
)
def test_dyadic_root_of_huge_gamma_terms_is_bounded(tmp_path, gamma, code, out, err):
    """gamma = a/b with a 60-digit b: 2^b > 25 gives the root 1 without a
    search, and 25^a is refused by its bit count before it is formed.  Both
    ran past a 10 s timeout before.  Never run these inputs without the cap."""
    path = tmp_path / "j1.wedge"
    path.write_text(serialize_wedge(family_wedge(1)))
    start = time.perf_counter()
    result = run_capped(["audit", "dyadic", str(path), "--gamma", gamma, "--v", "0"])
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert elapsed < 1.0


@pytest.mark.parametrize("flag, audit", [("--gamma", ["dyadic", "--v", "0"]), ("--fraction", ["dichotomy"])])
@pytest.mark.parametrize("value", ["1e-10000000", "1e-100000000", "1E+4301", "1e4_301"])
def test_huge_rational_exponent_is_refused(tmp_path, flag, audit, value):
    """An exponent over the int-to-text digit limit is refused before
    Fraction forms 10 to its power: --gamma 1e-10000000 took 9.2 s, and
    1e-100000000 ran past a 60 s timeout.  Never run these inputs without
    the cap."""
    path = tmp_path / "j1.wedge"
    path.write_text(serialize_wedge(family_wedge(1)))
    start = time.perf_counter()
    result = run_capped(["audit", audit[0], str(path), flag, value, *audit[1:]])
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith(f"error: argument {flag}: the exponent of {value!r} is over 4300\n")
    assert "Traceback" not in result.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "flag, audit, value, err",
    [
        ("--gamma", ["dyadic", "--v", "0"], "1e4300", "error: gamma must lie in [0, 1)\n"),
        ("--gamma", ["dyadic", "--v", "0"], "-1e-4300", "error: gamma must lie in [0, 1)\n"),
        ("--gamma", ["dyadic", "--v", "0"], "3/2", "error: gamma must lie in [0, 1), got 3/2\n"),
        ("--fraction", ["dichotomy"], "1e4300", "error: fraction must lie in (0, 1]\n"),
        ("--fraction", ["dichotomy"], "-1e-4300", "error: fraction must lie in (0, 1]\n"),
        ("--fraction", ["dichotomy"], "3/2", "error: fraction must lie in (0, 1], got 3/2\n"),
    ],
    ids=[f"{flag}={value}" for flag in ("gamma", "fraction") for value in ("1e4300", "-1e-4300", "3/2")],
)
def test_out_of_range_rational_is_refused_by_its_range(tmp_path, flag, audit, value, err):
    """A value out of range at the exponent limit has more digits than
    str() converts, so the refusal names the range without the value: it
    printed Python's own int-to-str message before.  Never run these inputs
    without the cap."""
    path = tmp_path / "j1.wedge"
    path.write_text(serialize_wedge(family_wedge(1)))
    start = time.perf_counter()
    result = run_capped(["audit", audit[0], str(path), f"{flag}={value}", *audit[1:]])
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout, result.stderr) == (2, "", err)
    assert "Traceback" not in result.stderr
    assert elapsed < 1.0


def test_small_rational_exponent_is_read(capsys, monkeypatch):
    code, out = run_pipeline(
        [["gen", "family", "--j", "1"], ["audit", "dyadic", "-", "--gamma", "1e-3", "--v", "0"]], capsys, monkeypatch
    )
    assert code == 0
    assert out == (
        "NOTE dyadic window 1 25\nNOTE dyadic empty false\nNOTE dyadic below 0\n"
        "NOTE dyadic inside 300\nNOTE dyadic above 0\nCHECK dyadic.total holds 300/300\n"
    )


def test_pencil_plus_a_pair_is_reported_without_counting_every_row():
    """A pencil of 20,000 curves plus the record 0 1 (F = 1, d = 0): only
    rows 0 and 1 hold a record besides the pencil, so only they are
    counted; counting all 20,000 rows of 20,000 ids took 10 s.  Never run
    this input without the cap."""
    text = serialize_structure(gen_pencil(20000)) + "v 0 1\n"
    start = time.perf_counter()
    result = run_capped(["validate", "-"], text)
    elapsed = time.perf_counter() - start
    out = "invalid alpha=1 n=20000 violations=1\n  PairMultiplicity(pair=(0, 1), observed=2)\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, out, "")
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv, out",
    [
        (["validate", "-"], "valid alpha=1 n=40000 vertices=1\n"),
        (["stats", "-", "--format", "machine"], "STAT alpha 1\nSTAT n 40000\nSTAT vertices 1\nSTAT r 1\nTK 40000 1\nLD 40000 799980000\n"),
        (["audit", "pairs", "-"], "CHECK pairs holds 799980000/799980000\n"),
    ],
)
def test_large_pencil_is_valid_in_closed_form(argv, out):
    """A pencil is valid exactly when it is the only record, so its
    C(n, 2) pairs are never walked: the row pass took about a minute at
    n = 40,000.  Never run this input without the cap."""
    pencil = serialize_structure(gen_pencil(40000))
    start = time.perf_counter()
    result = run_capped(argv, pencil)
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    assert elapsed < 5.0


def test_thm3_of_a_huge_pencil_builds_only_the_deciding_entries():
    """Theorem 3's audit builds entries for the degrees that occur and the
    largest vacuous one, not for every k in 2..n: one entry per k ran out
    of memory at n = 1,500,000.  Never run this input without the cap."""
    result = run_capped(["audit", "thm3", "-"], serialize_structure(gen_pencil(1_500_000)))
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "CHECK thm3.part1.k1500000 holds 0/1\n"
        "CHECK thm3.part2.k1500000 holds 1/1\n"
        "CHECK thm3.part1 holds 0/1\n"
        "CHECK thm3.part2 holds 1/1\n"
    )


@pytest.mark.parametrize("limit", [640, 4300])
def test_dyadic_window_prints_up_to_the_digit_limit(capsys, monkeypatch, limit):
    """Around the last v whose lower bound 5 * 2^v (family j = 1, n = 25,
    gamma = 1/2) fits in `limit` digits, the output is what the window's
    formula gives, and one v later the refusal."""
    bound = 10**limit
    cut = next(v for v in itertools.count() if 5 << v >= bound)
    wedge = serialize_wedge(family_wedge(1))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for v in range(cut - 3, cut + 3):
            code, out, err = run_cli(["audit", "dyadic", "-", "--gamma", "1/2", "--v", str(v)], capsys, wedge, monkeypatch)
            if v < cut:
                assert (code, err) == (0, "")
                assert out == (
                    f"NOTE dyadic window {2**v * 5} {25 // 2**v}\nNOTE dyadic empty true\n"
                    "NOTE dyadic below 300\nNOTE dyadic inside 0\nNOTE dyadic above 0\n"
                    "CHECK dyadic.total holds 300/300\n"
                )
            else:
                assert (code, out) == (2, "")
                assert err == f"error: --v {v} makes the dyadic window's lower bound longer than {limit} digits\n"
    finally:
        sys.set_int_max_str_digits(saved)


# What every command loads: the CLI, the formats, the generators it may
# dispatch to and the structures they build.
BASE_MODULES = {"acckit", "acckit.cli", "acckit.family", "acckit.formats", "acckit.limits", "acckit.plane", "acckit.structure"}
NETWORK_MODULES = {"urllib.request", "http.client", "email"}
LOAD_PROBE = """
import sys
import acckit
code = 0
if sys.argv[1:]:
    from acckit.cli import dispatch
    code = dispatch(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.split(".")[0] in ("acckit", "fractions", "urllib", "http", "email")))
"""


def test_each_command_loads_only_its_modules(tmp_path):
    """`import acckit` loads no submodule, and each command loads only the
    modules it runs: .acc input never loads the expansion, audit pairs never
    loads the audits, validate, stats, audit pairs and audit dirac on .acc,
    validate, stats and audit pairs on .wedge and rendering never load
    fractions, and nothing loads a network module."""
    acc, wedge = tmp_path / "j1.acc", tmp_path / "j1.wedge"
    wedge.write_text(serialize_wedge(family_wedge(1)))
    acc.write_text(serialize_structure(expand(family_wedge(1)).structure))
    # (argv, acckit modules loaded, whether fractions may load)
    cases = [
        ([], {"acckit"}, False),
        (["validate", acc], BASE_MODULES, False),
        (["stats", acc], BASE_MODULES, False),
        (["audit", "pairs", acc], BASE_MODULES, False),
        (["validate", wedge], BASE_MODULES | {"acckit.wedge"}, False),
        (["audit", "pairs", wedge], BASE_MODULES | {"acckit.wedge"}, False),
        (["audit", "dirac", acc], BASE_MODULES | {"acckit.audits"}, False),
        (["stats", wedge], BASE_MODULES | {"acckit.wedge"}, False),
        (["gen", "pg2", "--p", "3", "--all"], BASE_MODULES, True),
        (["gen", "pencil", "--n", "4"], BASE_MODULES, True),
        (["gen", "family", "--j", "1"], BASE_MODULES | {"acckit.wedge"}, True),
        (["render", "wedge", wedge], BASE_MODULES | {"acckit.render", "acckit.wedge"}, False),
        (["render", "arrangement", wedge], BASE_MODULES | {"acckit.render", "acckit.wedge"}, False),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(acckit.cli.__file__).parents[1])}
    for argv, modules, fractions in cases:
        argv = [str(arg) for arg in argv] + (["--out", str(tmp_path / "out")] if argv else [])
        result = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True, text=True, check=True, env=env, cwd=tmp_path
        )
        code, *loaded = result.stdout.split()
        assert (code, result.stderr) == ("0", ""), argv
        assert {name for name in loaded if name.split(".")[0] == "acckit"} == modules, argv
        assert not NETWORK_MODULES & set(loaded), argv
        assert fractions or "fractions" not in loaded, argv


FUZZ_SEEDS = (
    PENCIL3,
    serialize_structure(gen_simple_cyclic(4)),
    "acc 1\nalpha 2\nlines 4\nv 0 1 2\nv 0 1 3\nv 0 2 3\nv 1 2 3\n",
    serialize_wedge(family_wedge(1)),
    serialize_wedge(family_wedge(2)),
)
FUZZ_TOKENS = st.one_of(
    st.integers(0, 7).map(str),
    st.integers(0, 99).map(str),
    st.builds("{}{}".format, st.sampled_from("TB"), st.integers(0, 7)),
    st.builds("{}{}".format, st.sampled_from("TB"), st.integers(0, 99)),
    st.sampled_from(("v", "beam", "acc", "alpha", "lines", "wedge", "m", "#", "-1", "x")),
)
FUZZ_HEADERS = st.tuples(st.sampled_from(("acc", "alpha", "lines", "wedge", "m")), st.integers(0, 99)).map(
    lambda header: [header[0], str(header[1])]
)


@st.composite
def mutated_inputs(draw):
    """A small valid .acc or .wedge text after one to four edits: a header
    line rewritten, or in the body a token deleted, duplicated, swapped
    with another or replaced by a short number or keyword, or a line
    dropped or copied."""
    rows = [line.split() for line in draw(st.sampled_from(FUZZ_SEEDS)).splitlines()]
    head = 2 if rows[0] == ["wedge", "1"] else 3
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("header", "delete", "duplicate", "swap", "replace", "drop line", "copy line")))
        if edit == "header":
            rows[draw(st.integers(0, head - 1))] = draw(FUZZ_HEADERS)
            continue
        i = draw(st.integers(head, len(rows) - 1))
        row = rows[i]
        k = draw(st.integers(0, len(row) - 1))
        if edit == "delete":
            if len(row) > 1:
                del row[k]
        elif edit == "duplicate":
            row.insert(k, row[k])
        elif edit == "swap":
            other = rows[draw(st.integers(head, len(rows) - 1))]
            j = draw(st.integers(0, len(other) - 1))
            row[k], other[j] = other[j], row[k]
        elif edit == "replace":
            row[k] = draw(FUZZ_TOKENS)
        elif edit == "drop line":
            if len(rows) > head + 1:
                del rows[i]
        else:
            rows.insert(i, list(row))
    return "".join(" ".join(row) + "\n" for row in rows)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(mutated_inputs())
def test_dispatch_maps_mutated_inputs_to_exit_codes(text):
    """Every mutated input ends in exit code 0, 1 or 2 with no traceback;
    exit 2 prints one error line, and a report lists at most 20 examples
    of each of its five kinds."""
    for argv in (["validate", "-"], ["stats", "-"], ["audit", "pairs", "-"]):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv)
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert out.getvalue().count("\n") <= 110, argv
