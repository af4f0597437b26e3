"""Runs the benchmark's child processes from a small interpreter.

A child's ``ru_maxrss`` also counts the memory of the process it was forked
from, up to its exec. Started from the benchmark, whose checks hold whole
tables in memory, the children would report the benchmark's peak instead of
their own. This process imports no numpy and stays near 10 MB.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stderr": path
or null}``; one JSON reply per stdout line with the child's wall time
(measured here, around spawn and wait), exit code, user+sys CPU time and peak
RSS. Exits at end of input.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        stderr = open(request["stderr"], "w") if request["stderr"] else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            if stderr is not subprocess.DEVNULL:
                stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "code": proc.returncode,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
