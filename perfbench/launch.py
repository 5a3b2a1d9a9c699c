"""Spawn one CLI child, wait for it and print its time and resource usage.

    python3 launch.py TIMEOUT_S STDOUT_PATH STDERR_PATH -- PROGRAM ARG...

A child's ``ru_maxrss`` starts at the resident size of the process that
spawned it, because exec records the old address space's high-water mark.
The benchmark holds whole traces in memory, so it does not spawn the CLI
itself: it runs this launcher, which stays far smaller than the CLI.  The
launcher times the child from spawn to exit, reads its usage with
``os.wait4`` and prints one JSON object with ``exit``, ``wall_s``, ``cpu_s``
and ``peak_rss_mb``.  On a timeout or SIGTERM it kills the child and waits
for it before it exits.
"""

import json
import os
import signal
import sys
from time import perf_counter


def _stop(signum, frame):
    raise TimeoutError(f"signal {signum}")


def main() -> int:
    timeout_s, stdout_path, stderr_path, dashes, *argv = sys.argv[1:]
    if dashes != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(int(timeout_s))
    pid = None
    try:
        started = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
    wall = perf_counter() - started
    print(json.dumps({
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
