"""Run one command and write its exit code, wall time and rusage as JSON.

    python3 -S perfbench/launch.py result.json program arg ...

Linux carries a process's peak RSS across fork and exec, so a CLI child
forked straight from the benchmark (which holds numpy, scipy and the
reference data) would report the benchmark's peak as its own. This
launcher is a small interpreter; the command it forks starts from its
small footprint, so the rusage returned for that command is the
command's own.
"""

import json
import os
import sys
import time


def main() -> None:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, handle)


if __name__ == "__main__":
    main()
