"""Helpers shared by the test modules."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import acckit


def run_capped(argv, stdin_text=None, cap=1 << 30):
    """Run the CLI in a subprocess with address space capped at cap bytes
    (1 GiB by default) and time at 60 s, so that a regression fails with
    MemoryError or a timeout instead of exhausting the machine; stdin_text,
    when given, is its standard input."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(acckit.__file__).parents[1])}
    env.pop("ACCKIT_EXPAND_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-m", "acckit", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=60,
    )
