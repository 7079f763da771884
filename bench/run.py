"""acckit benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload family_cli --seed 1 --seconds 33 --trace 0

One client runs a closed loop: each job starts when the previous one has
finished, as a user waits for each command.  A pipeline ``gen ... | cmd -``
is one process per stage joined by pipes (no shell, started by
launcher.py), so each stage's exit code, stderr and peak RSS (from
``os.wait4``) are its own.  Every job runs at least twice.

``--trace 0`` times ``python -m acckit`` processes and prints the end-to-end
metrics: ``setup_s``, the median of several set-ups (inputs written through
acckit's API plus one ``python -m acckit --help``); ``wall_s``, the sum over
jobs of each job's median time; ``key_job_s``, the median time of the
workload's headline job; ``peak_rss_mb``, the largest peak RSS of any
process; ``output_mb``, the stdout and stderr bytes of one pass.  The share
of failed job runs is printed too.

``--trace 1`` also replays every job in-process through
``acckit.cli.dispatch``, untraced and then with spans around the package's
public functions (see spans.py), and prints the per-layer metrics.  Every
job's output is checked in both modes.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 7
MIN_REPS = 2
JOB_TIMEOUT_S = 150.0
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "key_job_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER_UNITS = {
    "structure.validations_per_structure": "ratio",
    "wedge.expands_per_wedge": "ratio",
    "formats.bytes_in": "bytes",
    "formats.bytes_out": "bytes",
    "render.svg_bytes": "bytes",
}


@dataclass
class Outcome:
    """One execution of a job: every stage's exit code and stderr, the last
    stage's stdout, and the peak RSS over its processes."""

    codes: list[int]
    stdout: bytes
    stderr: str
    seconds: float
    rss_kb: int = 0

    def digest(self) -> str:
        return hashlib.sha256(repr(self.codes).encode() + self.stdout).hexdigest()


@dataclass
class JobRecord:
    seconds: list[float] = field(default_factory=list)
    inproc_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    digest: str | None = None
    output_bytes: int = 0
    rss_kb: int = 0


class Bench:
    def __init__(self, workload, work: Path, launcher: subprocess.Popen):
        self.workload = workload
        self.work = work
        self.launcher = launcher
        self.records = {job.name: JobRecord() for job in workload.jobs}
        self.attempted = 0
        self.failures: list[str] = []

    # Running one job.

    def spawn(self, stages) -> Outcome:
        """Run a pipeline of acckit processes, started by the launcher."""
        out = self.work / "_stdout"
        errs = [self.work / f"_stderr{i}" for i in range(len(stages))]
        request = {
            "stages": stages,
            "cwd": str(self.work),
            "stdout": str(out),
            "stderr": [str(e) for e in errs],
            "timeout": JOB_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        reply = json.loads(reply)
        stderr = "".join(e.read_text("utf-8", "replace") for e in errs)
        return Outcome(reply["codes"], out.read_bytes(), stderr, reply["seconds"], max(reply["rss_kb"]))

    def replay(self, job, tracer=None) -> tuple[Outcome, list]:
        """Run the job's stages in this process through acckit.cli.dispatch."""
        from acckit import cli

        text, codes, errors = "", [], []
        saved_stdin = sys.stdin
        start = time.perf_counter()
        try:
            for argv in job.stages:
                out, err = io.StringIO(), io.StringIO()
                sys.stdin = io.StringIO(text)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        if tracer is None:
                            code = cli.dispatch(list(argv))
                        else:
                            with tracer.span("cli.dispatch"):
                                code = cli.dispatch(list(argv))
                    except Exception as exc:
                        code = 1
                        print(f"Traceback (in-process): {exc!r}", file=err)
                codes.append(code)
                errors.append(err.getvalue())
                text = out.getvalue()
        finally:
            sys.stdin = saved_stdin
        seconds = time.perf_counter() - start
        expansions = tracer.end_job() if tracer is not None else []
        return Outcome(codes, text.encode(), "".join(errors), seconds), expansions

    def record(self, job, outcome: Outcome, expansions=()) -> None:
        """Check one execution and count it."""
        self.attempted += 1
        rec = self.records[job.name]
        problem = self._problem(job, outcome, rec, expansions)
        if problem:
            self.failures.append(f"{job.name}: {problem}")
        if job.save_as and rec.digest is None and not problem:
            (self.work / job.save_as).write_bytes(outcome.stdout)
        rec.rss_kb = max(rec.rss_kb, outcome.rss_kb)
        if rec.digest is None:
            rec.digest = outcome.digest()
            rec.output_bytes = len(outcome.stdout) + len(outcome.stderr.encode())

    def _problem(self, job, outcome: Outcome, rec: JobRecord, expansions) -> str | None:
        want = [0] * (len(job.stages) - 1) + [job.expect]
        if outcome.codes != want:
            return f"exit codes {outcome.codes}, expected {want}: {outcome.stderr[-300:]!r}"
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        if rec.digest is not None and outcome.digest() != rec.digest:
            return "stdout differs from the first repetition"
        if rec.digest is None or expansions:
            problem = job.check(outcome.stdout.decode("utf-8", "replace"), outcome.stderr)
            if problem:
                return problem
        for arrangement in expansions if job.family_j else ():
            j = job.family_j
            n = arrangement.structure.n
            if n != 18 * j + 7 or arrangement.apex_degree() != (n - 1) // 3:
                return f"expansion has n={n}, apex degree {arrangement.apex_degree()}"
        return None

    # Passes over the job list.

    def measure(self, seconds: float) -> None:
        """Closed loop over the job list for `seconds`, and until every job
        has run MIN_REPS times."""
        deadline = time.perf_counter() + seconds
        while True:
            for job in self.workload.jobs:
                rec = self.records[job.name]
                if time.perf_counter() >= deadline and all(
                    len(r.seconds) >= MIN_REPS for r in self.records.values()
                ):
                    return
                outcome = self.spawn(job.stages)
                self.record(job, outcome)
                rec.seconds.append(outcome.seconds)

    def measure_traced(self, seconds: float) -> list[dict[str, float]]:
        """Per-layer numbers: rounds of one process pass, one untraced and one
        traced in-process pass, in alternating order, after one untimed
        in-process pass that warms the interpreter.  A round starts only
        while the previous one still fits in `seconds`; there is at least one."""
        from spans import Tracer

        start = time.perf_counter()
        layers = []
        with contextlib.chdir(self.work):
            for job in self.workload.jobs:
                self.record(job, self.replay(job)[0])
            round_s = 0.0
            while not layers or time.perf_counter() - start + round_s <= seconds:
                round_start = time.perf_counter()
                for job in self.workload.jobs:
                    outcome = self.spawn(job.stages)
                    self.record(job, outcome)
                    self.records[job.name].seconds.append(outcome.seconds)
                tracer = Tracer()
                for traced in (len(layers) % 2 == 1, len(layers) % 2 == 0):
                    if traced:
                        tracer.install()
                    try:
                        for job in self.workload.jobs:
                            outcome, expansions = self.replay(job, tracer if traced else None)
                            self.record(job, outcome, expansions)
                            rec = self.records[job.name]
                            (rec.traced_s if traced else rec.inproc_s).append(outcome.seconds)
                    finally:
                        tracer.uninstall()
                layers.append(tracer.layer_values())
                round_s = time.perf_counter() - round_start
        return layers

    def total(self, attr: str) -> float:
        return sum(statistics.median(getattr(r, attr)) for r in self.records.values())


def setup(workload, bench: Bench) -> tuple[float, float]:
    """Write the inputs and start one cold `python -m acckit --help`.

    Returns (set-up seconds, --help seconds)."""
    start = time.perf_counter()
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    workload.write_inputs(bench.work)
    done = bench.spawn([["--help"]])
    seconds = time.perf_counter() - start
    if done.codes != [0] or not done.stdout.startswith(b"usage: acckit"):
        raise RuntimeError(f"acckit --help failed: {done.stderr[-300:]}")
    return seconds, done.seconds


def _import_acckit():
    if not (SRC / "acckit" / "__init__.py").is_file():
        sys.exit(f"error: no acckit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import acckit

    if Path(acckit.__file__).resolve().parent != (SRC / "acckit").resolve():
        sys.exit(f"error: imported acckit from {acckit.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true", help="smallest rung of every ladder (self-test)")
    args = parser.parse_args(argv)

    _import_acckit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    rung = workloads.SMALLEST if args.smallest else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, rung)

    # The children see only the checkout's sources and the default budgets.
    os.environ.pop("ACCKIT_SUBSET_BUDGET", None)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launcher.py"))],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    bench = Bench(workload, WORK / f"{args.workload}-{os.getpid()}", launcher)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        timings = [setup(workload, bench) for _ in range(SETUPS)]
        if args.trace:
            layer_passes = bench.measure_traced(args.seconds)
        else:
            bench.measure(args.seconds)
    finally:
        launcher.stdin.close()
        if sys.exc_info()[0] is not None:
            launcher.terminate()
        launcher.wait()
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    records = bench.records
    if args.trace:
        from spans import median_values

        metrics = median_values(layer_passes)
        dispatch = bench.total("inproc_s")
        metrics["cli.startup_s"] = statistics.median(t[1] for t in timings)
        metrics["cli.dispatch_s"] = dispatch
        metrics["cli.process_overhead_s"] = bench.total("seconds") - dispatch
        metrics["trace.overhead_s"] = bench.total("traced_s") - dispatch
        units = {name: PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count") for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(t[0] for t in timings),
            "wall_s": bench.total("seconds"),
            "key_job_s": statistics.median(records[workload.key_job].seconds),
            "peak_rss_mb": max(r.rss_kb for r in records.values()) * 1024 / MB,
            "output_mb": sum(r.output_bytes for r in records.values()) / MB,
        }
        units = END_TO_END

    width = max(len(name) for name in records)
    print(f"workload {workload.name}, seed {args.seed}, {len(records)} jobs, trace {args.trace}")
    for name, rec in records.items():
        print(f"  {name:<{width}}  runs {len(rec.seconds):>2}  median {statistics.median(rec.seconds):8.4f} s"
              f"  range {min(rec.seconds):.4f}-{max(rec.seconds):.4f} s"
              f"  rss {rec.rss_kb / 1024:7.1f} MiB  out {rec.output_bytes:>9} B")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    failed = len(bench.failures)
    print(f"failed_ratio {failed / bench.attempted:.4f} ({failed} of {bench.attempted} job runs)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
