"""Run one command; print its wall time, peak RSS and exit code as JSON.

Usage: python3 launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE COMMAND...

On Linux a process's peak RSS (``ru_maxrss``) also counts the memory of the
process that forked it, so the benchmark, which holds a whole corpus in
memory, starts each command through this small process.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, out_path, err_path, *command = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
