"""Machine-speed reference: fixed kernels timed next to every command.

On a shared virtual machine the CPU runs at very different speeds from one
ten-second stretch to the next (the same command can take 40% longer).
Every latency is therefore reported at reference speed: divided by the
speed index measured around it, which is 1 when the reference kernels take
``REF_PY`` and ``REF_NP``.  Interpreter-bound and numpy-bound code slow
down by different factors, so the index weighs the two kernels by the
share of interpreter work in the workload.  The kernels call no optlaws
code; raw wall-clock times are kept next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel times on the reference machine (2-core VM, Python 3.11).
REF_PY = 0.0095
REF_NP = 0.0075
MAX_AGE_S = 0.25  # a command reuses a kernel sample at most this old

_M = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


def kernel_py() -> int:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return acc


def kernel_np() -> float:
    z = np.random.Generator(np.random.Philox(12345)).standard_normal((16_384, 16))
    y = z @ _M
    return float(np.sum(y * y))


class Calibrator:
    """Time-ordered kernel samples; each command uses the pair around it."""

    def __init__(self, py_weight: float):
        self.w = py_weight
        self.samples: list[tuple[float, float]] = []  # (interpreter s, numpy s)
        self.spent = 0.0
        self._last = -float("inf")

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel_py()
        t1 = time.perf_counter()
        kernel_np()
        self._last = time.perf_counter()
        self.samples.append((t1 - t0, self._last - t1))
        self.spent += self._last - t0

    def before(self) -> int:
        """Index of the sample preceding a command, taking a fresh one if stale."""
        if time.perf_counter() - self._last > MAX_AGE_S:
            self.measure()
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """1 / speed index, from sample i and the next one (taken after the command)."""
        (p0, n0), (p1, n1) = self.samples[i], self.samples[i + 1]
        index = self.w * (p0 + p1) / (2 * REF_PY) + (1 - self.w) * (n0 + n1) / (2 * REF_NP)
        return 1.0 / index
