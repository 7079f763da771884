"""Helpers shared by the test modules."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import acckit


def run_capped(argv, stdin_text=None):
    """Run the CLI in a subprocess with address space capped at 1 GiB and
    time at 60 s, so that a regression fails with MemoryError or a timeout
    instead of exhausting the machine; stdin_text, when given, is its
    standard input."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(acckit.__file__).parents[1])}
    env.pop("ACCKIT_EXPAND_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-m", "acckit", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=60,
    )
