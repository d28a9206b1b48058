#!/usr/bin/env python3
"""Run a command and fail unless its peak resident set size stays below a bound.

Usage: python scripts/peak_rss.py LIMIT_MIB -- COMMAND [ARG...]

The peak is the command's own, taken from ``os.wait4`` on its process, so
several gates can run one after another from one parent; the
``RUSAGE_CHILDREN`` high-water mark would carry the largest earlier child
into every later gate. The peak is printed with the bound. The exit status
is 1 when the command fails or peaks at or above LIMIT_MIB, else 0.
Standard library only.
"""

import os
import shlex
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__.splitlines()[2])
    limit, command = float(argv[0]), argv[2:]
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    name = shlex.join(command)
    print(f"peak RSS {peak:.0f} MiB, bound {limit:g} MiB: {name}", flush=True)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{name} exited with status {code}")
    if peak >= limit:
        sys.exit(f"{name} peaked at {peak:.0f} MiB, not below {limit:g} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
