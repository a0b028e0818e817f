"""Host speed, sampled while the benchmark runs.

The benchmark host is shared, and its speed drifts: a fixed pure-Python
loop timed back to back on the 2-core Xeon host where this benchmark was
written ranged over ±25%, in slow and fast phases lasting seconds to
minutes, with CPU time equal to wall time.  Taking the median of more
rounds does not remove a phase that outlasts the run.

So a sampler process times a fixed kernel every ``PERIOD_S`` for the
whole run.  A time measured over an interval is rescaled by
``REFERENCE_KERNEL_S / (median kernel time in that interval)``: it becomes
the time the work would take on a host where the kernel takes exactly
``REFERENCE_KERNEL_S``.  The sampler is a separate process, so it shares
neither the interpreter lock nor the caches of the measured program.

    python3 perfbench/hostclock.py <samples file>

runs the sampler until it is terminated; run.py starts and stops it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.05
# About the kernel's time on that host in a quiet phase; it only sets the
# scale of the reported times.
REFERENCE_KERNEL_S = 0.0005
MIN_SAMPLES = 5


def kernel() -> int:
    d: dict = {}
    for i in range(3000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return len(d)


class HostClock:
    """Runs the sampler process and rescales measured intervals.

    Interval bounds are ``time.time()`` values, the clock the sampler
    stamps its samples with.
    """

    def __init__(self, samples_file):
        self.path = Path(samples_file)
        self.samples: list = []
        self._proc = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdin=subprocess.DEVNULL,
        )
        # the first samples must exist before anything is timed
        while len(self._read()) < MIN_SAMPLES:
            if self._proc.poll() is not None:
                raise RuntimeError("host clock sampler exited")
            time.sleep(PERIOD_S)

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.terminate()
            self._proc.wait(timeout=30)
            self._proc = None
        self.samples = self._read()

    def _read(self) -> list:
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:  # skip a line cut by termination
                out.append((float(parts[0]), float(parts[1])))
        return out

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]: median kernel time / reference.

        Uses the samples inside the interval, or the ``MIN_SAMPLES``
        nearest to it when the interval is too short to hold that many.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        return statistics.median(inside) / REFERENCE_KERNEL_S


def _sample(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        while True:
            t0 = time.time()
            c0 = time.perf_counter()
            kernel()
            fh.write(f"{t0!r} {time.perf_counter() - c0!r}\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample(sys.argv[1])
