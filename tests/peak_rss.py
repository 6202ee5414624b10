"""Run one grothpoly CLI request in a child process and hold its peak RSS
to a bound.

    PYTHONPATH=src python tests/peak_rss.py 150 -- compute --family bH --n 5 --word ""

The child is ``python -m grothpoly ARGV`` with this process's environment;
its stdout and stderr pass through.  Once it ends, one line on stderr gives
its wall time and peak RSS.  The exit code is the child's when it fails,
1 when it passed but peaked over BOUND_MB megabytes (MiB), and 0 otherwise.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: peak_rss.py BOUND_MB -- ARGV...", file=sys.stderr)
        return 2
    bound = float(argv[0])
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "grothpoly", *argv[2:]]).returncode
    wall = time.perf_counter() - start
    # the largest RSS of any waited-for child, in KiB on Linux; this
    # process waits for one
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss: wall time {wall:.2f} s, peak RSS {peak:.0f} MB (bound {bound:g} MB)", file=sys.stderr)
    if code:
        return code if code > 0 else 1
    return int(peak > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
