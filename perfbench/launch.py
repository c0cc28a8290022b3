"""Runs the benchmark's commands from an interpreter that stays small.

At exec, Linux folds the high-water RSS of the process that spawned a
child into the child's ``ru_maxrss``. A stage started by the benchmark
itself, after its checks have loaded the artifacts, would report the
benchmark's peak instead of its own. This launcher is started before
anything is loaded and runs one command per request: a JSON line on
stdin with ``argv``, ``env`` and a ``stderr`` path; a JSON line back on
stdout with the wall time, the peak RSS, the exit code and the command's
stdout. It exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdout=subprocess.PIPE, stderr=err, env=request["env"], text=True
            )
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024,
                 "code": proc.returncode, "stdout": stdout}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
