"""Run one command and print its exit code, wall time, CPU time and peak RSS.

    python3 -S perfbench/spawn.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

The benchmark starts every measured child through this small process.  On
Linux a child's ``ru_maxrss`` is at least the RSS high-water mark of the
process that spawned it, and the benchmark process itself is larger than the
smallest campaign; this launcher stays at the interpreter's minimum.  It
imports nothing beyond what ``python -S`` has loaded already.
"""

import os
import sys
import time


def main() -> int:
    out, err, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    print(os.waitstatus_to_exitcode(status), repr(wall), repr(cpu), usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
