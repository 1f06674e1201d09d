"""Calibration kernels that make timings comparable on a drifting CPU.

On a small shared machine the CPU speed can drift by a quarter within a
few seconds, and hardware counters may be unavailable, so neither wall
time, CPU time nor instruction counts repeat between runs.  The ratio of
an operation's time to a fixed kernel timed right next to it does.

Every timed region is therefore bracketed by a kernel, and its time is
reported as::

    normalised = raw * reference_duration / adjacent_kernel_duration

where the adjacent duration is the mean of the kernel timings just before
and just after the region.  Two kernels exist: an interpreter loop over
tiny numpy calls for in-process work, and a bare ``python -c "import
numpy"`` process for child processes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: median duration of one in-process kernel on the reference machine, s
IN_PROCESS_REF_S = 1.72e-3
#: median wall time of one process kernel on the reference machine, s
PROCESS_REF_S = 0.140

_P = np.array([0.3, 0.7])
_R = np.array([[0.5, -0.5]])
_TABLE = {i: _P for i in range(10_000)}


def in_process_kernel() -> int:
    """The engine's mix in miniature: an interpreter loop over 2x2 numpy
    algebra, then a session-style copy and flag sweep of a large mapping.

    Tiny numpy calls alone track compute-bound work but over-correct work
    that walks large dictionaries; the copy makes the kernel follow both.
    """
    acc = 0.0
    for _ in range(100):
        w = np.diag(_P) - np.outer(_P, _P)
        v = _R @ w
        acc += float(np.where(v < 1e-12, 0.0, v).sum())
    copy = dict(_TABLE)
    flags = {k: False for k in copy}
    return len(flags) + int(acc > 0)


def child_env(root: Path) -> dict[str, str]:
    """Environment for child processes: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(argv: list[str], env: dict[str, str]) -> str:
    """Run one child to completion and return its standard output."""
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise ExitStatus(argv, done.returncode, done.stderr.strip())
    return done.stdout


class ExitStatus(Exception):
    """A command exited with a status other than 0."""

    def __init__(self, argv, code, stderr):
        super().__init__(f"{' '.join(argv)} exited {code}: {stderr}")


class Clock:
    """Times callables between runs of a calibration kernel.

    ``measure`` runs a callable once and returns its result; the callable's
    raw and normalised durations, in seconds, go to ``on_time`` once the
    kernel that closes its block has run.  A block gathers regions until
    their raw time reaches ``block_s``, so sub-millisecond operations are
    not each followed by a kernel that evicts their caches.  The kernel
    closing one block also opens the next.
    """

    def __init__(self, kernel, reference_s: float, block_s: float):
        self._kernel = kernel
        self._reference_s = reference_s
        self._block_s = block_s
        self._pending: list[tuple[float, object]] = []
        self._pending_s = 0.0
        self._last = self.kernel_s()

    def kernel_s(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def measure(self, fn, *args, on_time):
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        self._pending.append((raw, on_time))
        self._pending_s += raw
        if self._pending_s >= self._block_s:
            self.flush()
        return out

    def flush(self) -> None:
        """Close the open block: run the kernel and report its regions."""
        if not self._pending:
            return
        after = self.kernel_s()
        factor = self._reference_s * 2.0 / (self._last + after)
        self._last = after
        pending, self._pending, self._pending_s = self._pending, [], 0.0
        for raw, on_time in pending:
            on_time(raw, raw * factor)


def in_process_clock() -> Clock:
    """Brackets blocks of at least 50 ms of work with the in-process kernel."""
    return Clock(in_process_kernel, IN_PROCESS_REF_S, 0.05)


def process_clock(env: dict[str, str]) -> Clock:
    """Brackets every child process with a kernel process."""
    argv = [sys.executable, "-c", "import numpy"]
    return Clock(lambda: run_child(argv, env), PROCESS_REF_S, 0.0)
