"""Child-process launcher for the benchmark.

Reads one JSON argv list per line on stdin, runs it, and answers with one
JSON line: exit code, stdout, and the child's own peak resident memory.  It
is started while the benchmark process is still small, because Linux counts
the memory of the process a child was spawned from in the child's peak RSS.
"""

import json
import os
import subprocess
import sys
import threading

TIMEOUT_S = 60


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "stdout": out.decode(errors="replace"),
            "maxrss_kib": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
