"""Self-test of the benchmark: every workload at its smallest rung, untraced
and traced, must pass its output checks and print the declared metrics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s", "wall_s", "key_job_s", "peak_rss_mb", "output_mb"}
PER_LAYER = {
    "structure.validate_s", "structure.validate_calls", "structure.validations_per_structure",
    "structure.stats_s", "structure.curve_pairs", "structure.pair_incidences", "structure.violations",
    "wedge.expand_s", "wedge.expand_calls", "wedge.expands_per_wedge", "wedge.atoms", "wedge.glues",
    "wedge.crossing_pairs", "wedge.expansion_errors",
    "formats.parse_structure_s", "formats.parse_wedge_s", "formats.serialize_structure_s",
    "formats.serialize_wedge_s", "formats.bytes_in", "formats.bytes_out", "formats.parse_errors",
    "audits.tk_bounds_s", "audits.dirac_s", "audits.dichotomy_s", "audits.subsets",
    "audits.size_limit_refusals",
    "plane.pg2_s", "plane.sample_lines_s", "plane.structure_from_lines_s",
    "family.wedge_s", "family.fixture_s", "render.arrangement_s", "render.svg_bytes",
    "cli.startup_s", "cli.dispatch_s", "cli.process_overhead_s", "trace.overhead_s",
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_declares_every_metric():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


# The traced mode also runs every job as processes, so it covers each
# workload; one untraced run covers the end-to-end schema.
@pytest.mark.parametrize(
    "workload, trace", [(w["name"], 1) for w in SPEC["workloads"]] + [(SPEC["workloads"][0]["name"], 0)]
)
def test_smallest_rung(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--trace", str(trace), "--smallest")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = [m["value"] for m in result["metrics"].values()]
    assert all(type(v) in (int, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = iter([0, 10, 40, 100])  # outer start, inner start, inner end, outer end
    monkeypatch.setattr(spans, "perf_counter_ns", lambda: next(clock))
    tracer = spans.Tracer()
    with tracer.span("wedge.expand"):
        with tracer.span("structure.validate"):
            pass
    values = tracer.layer_values()
    assert values["structure.validate_s"] == 30 / 1e9
    assert values["wedge.expand_s"] == 70 / 1e9


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "family_cli")
    assert done.returncode != 0
    assert not done.stdout.strip()
