"""Run every workload untraced and traced, print the metrics, save them.

    python3 bench/record.py --label seed

runs ``bench/run.py`` once per workload and trace mode with the run length
from BENCHMARK.json, prints every metric by workload with its unit and the
share of failed job runs, and writes ``bench/BENCH_<label>.json``.  Each
value is a median over the repetitions inside its run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            results.setdefault(workload, {})[f"trace{trace}"] = result
            ratio = result["failed"] / result["attempted"]
            print(f"{workload} trace={trace} failed_ratio {ratio:.4f} ({result['failed']}/{result['attempted']})")
            for name, metric in result["metrics"].items():
                print(f"  {workload:<15} {name:<40} {metric['value']:>16.6g} {metric['unit']}")

    record = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "results": results,
    }
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
