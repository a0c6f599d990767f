"""Helpers shared by the workloads: seeds, machine fingerprint,
calibration kernel, peak memory of the process tree, percentiles and
the tally of checked operations."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np


def derive_seed(seed: int, *tags: str) -> int:
    """A 32-bit seed derived from the run seed and string tags."""
    words = [int(seed)] + [zlib.crc32(t.encode()) for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q / 100 * len(ordered))) - 1))
    return float(ordered[rank])


def pearson(a, b) -> float:
    return float(np.corrcoef(np.asarray(a), np.asarray(b))[0, 1])


# ----------------------------------------------------------------------
# Machine fingerprint and calibration
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l2_bytes() -> int:
    """Per-core L2 size from sysfs (``0`` when unknown)."""
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return 0
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def machine_fingerprint() -> dict:
    """What the numbers were measured on."""
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": _l2_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def calibrate() -> float:
    """Median seconds of a fixed single-threaded kernel, a NumPy sort of
    2**20 doubles plus an interpreter loop, timed in this process so
    figures can be compared against the same machine.  Recorded only,
    never gated on.  Multithreaded BLAS and large random gathers are
    left out: on small virtual machines their time depends on thread
    hand-offs and page layout more than on the processor."""
    data = np.random.default_rng(12345).random(1 << 20)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        np.sort(data)
        sum(range(200_000))
        times.append(time.perf_counter() - start)
    return median(times)


# ----------------------------------------------------------------------
# Peak memory of this process and its children
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    """Direct children of *pid*, from ``/proc/<pid>/stat``."""
    out = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            out.append(int(entry.name))
    return out


class PeakMemory:
    """Samples the high-water RSS of this process plus every live
    child (pool workers, the serve daemon) and keeps the largest sum.

    ``VmHWM`` is each process's own peak, so a child is counted at its
    peak as long as it is seen once before it exits.
    """

    #: Seconds between samples.
    INTERVAL = 0.2

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        total = _status_kb(me, "VmHWM")
        for child in _children(me):
            total += _status_kb(child, "VmHWM")
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# ----------------------------------------------------------------------
# Checked operations
# ----------------------------------------------------------------------
class Tally:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def report(self) -> None:
        for line in self.errors:
            print(f"check failed: {line}", file=sys.stderr)


class BenchmarkError(RuntimeError):
    """A run that cannot produce a valid result (not a slow one)."""
