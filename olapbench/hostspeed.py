"""How fast the host runs right now, from a fixed reference job.

On a shared host identical work runs up to ~1.5x slower for minutes at a
time, as other tenants come and go.  Between blocks of a measured run the
benchmark times a fixed job of its own (interpreter work plus numpy
reductions, like a query) in a helper process and divides by the job's
nominal time.  That factor is 1 on a host running the job at nominal speed
and grows as the host slows down.  Timings scaled by it read as they would
on the nominal host.

The job runs in its own process so that the program under test can not
slow it down: a program that holds the GIL or a core in a background
thread would otherwise slow the job too and hide its own cost.
"""

from __future__ import annotations

import subprocess
import sys

#: About what the reference job takes on a 2-core x86-64 host with no other
#: tenant busy.  Only ratios matter to a comparison between two commits;
#: this constant sets the scale.
NOMINAL_S = 1.0e-3

_CHILD = """
import sys, time
import numpy as np

cube = np.arange(16 * 64 * 64, dtype=np.float64).reshape(16, 64, 64)


def job():
    start = time.perf_counter()
    table = {}
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i
    for _ in range(20):
        cube.sum(axis=(1, 2))
        cube.sum(axis=0)
    return time.perf_counter() - start


for _ in sys.stdin:
    print(min(job() for _ in range(3)), flush=True)
"""


class HostSpeed:
    """A helper process that times the reference job on request."""

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.factor()  # the first job pays for warming up
        return self

    def factor(self) -> float:
        """The reference job's time now, over its nominal time."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference-job process ended early")
        return float(line) / NOMINAL_S

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
