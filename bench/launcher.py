"""Small long-lived process that starts the benchmark's ``acckit`` pipelines.

Linux gives a new process a peak RSS no lower than its parent's resident
set when it was spawned, so ``os.wait4`` would charge every child with the
benchmark's own memory.  The benchmark therefore starts this process first,
while it is still small, and has it spawn every timed pipeline.  It keeps no
job output in memory: stdout and stderr go to files the request names.

Protocol: one JSON request per line on stdin,
``{"stages": [[arg, ...], ...], "cwd": dir, "stdout": path, "stderr": [path, ...], "timeout": s}``;
one JSON reply per line on stdout,
``{"codes": [...], "seconds": s, "rss_kb": [...]}``.  Each stage runs as
``<python> -m acckit <args>``, reading the previous stage's stdout.  A
pipeline that outlives its timeout is killed.  The process exits at EOF.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    procs = []
    files = []
    start = time.perf_counter()
    try:
        upstream = subprocess.DEVNULL
        last = len(request["stages"]) - 1
        for index, (argv, err_path) in enumerate(zip(request["stages"], request["stderr"])):
            err = open(err_path, "wb")
            files.append(err)
            if index == last:
                out = open(request["stdout"], "wb")
                files.append(out)
            else:
                out = subprocess.PIPE
            proc = subprocess.Popen(
                [sys.executable, "-m", "acckit", *argv],
                cwd=request["cwd"],
                stdin=upstream,
                stdout=out,
                stderr=err,
            )
            if procs:
                procs[-1].stdout.close()
            procs.append(proc)
            upstream = proc.stdout
        timer = threading.Timer(request["timeout"], lambda: [p.kill() for p in procs])
        timer.start()
        codes, rss = [], []
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            rss.append(usage.ru_maxrss)
        seconds = time.perf_counter() - start
        timer.cancel()
        return {"codes": codes, "seconds": seconds, "rss_kb": rss}
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for handle in files:
            handle.close()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
