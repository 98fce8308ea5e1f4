"""Host-speed calibration: a fixed reference kernel timed through a run.

On a shared host the speed of the same code drifts by tens of percent over
minutes, and a whole run can sit inside one slow or fast stretch, so a
run's figures move with the host rather than with the program.  The
harness therefore times this kernel in each phase of an untraced run: once
before the set-up samples and after each of them, and once before the
calls and after each of them.  A phase's times are reported at reference
speed:

    measured time * REFERENCE_S / median of the phase's passes,

that is, in seconds of a host on which the kernel takes REFERENCE_S.  The
kernel is the benchmark's own code and calls none of the program, and the
garbage collector is off while it runs, so a change to the program cannot
move it.  The measured times and every pass are printed on the samples
line beside the result.

The kernel has two halves, as the workloads do: interpreted arithmetic and
small objects kept in dicts, and numpy reductions over a level-sized
array.  perfbench/README.md gives the measurements behind this choice.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Typical time of one pass on the host the benchmark was written on
#: (2-core shared Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
#: A constant: changing it rescales every reported time.
REFERENCE_S = 0.17
LOOP = 600_000
BLOCKS, BLOCK = 6, 10_000
REPEATS = 100
_CELLS = np.linspace(0.5, 2.0, 1 << 16)


class _Node:
    __slots__ = ("level", "index")

    def __init__(self, level: int, index: int):
        self.level, self.index = level, index


def _interpreted() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    for b in range(BLOCKS):
        # One small block at a time keeps the pass's memory far below any
        # workload's, so it never sets the peak resident memory reported.
        seen = {}
        for i in range(b * BLOCK, (b + 1) * BLOCK):
            node = _Node(i & 15, i >> 1)
            seen[node.level, node.index] = node
        total += len(seen)
    return total


def _numpy() -> float:
    a, total = _CELLS, 0.0
    for _ in range(REPEATS):
        total += float(np.cumsum(a * a)[-1])
        for level in (4, 8, 12):
            means = a.reshape(1 << level, -1).mean(axis=1)
            total += float(np.sum(means * means))
    return total


_EXPECTED = (LOOP - 1) * LOOP * (2 * LOOP - 1) // 6 + BLOCKS * BLOCK


def kernel() -> float:
    """Time one pass of the reference kernel; wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        exact, approx = _interpreted(), _numpy()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if exact != _EXPECTED or not approx > 0:
        raise AssertionError("calibration kernel produced a wrong result")
    return elapsed


class Clock:
    """Kernel passes taken through one phase of a run, and its speed factor."""

    def __init__(self):
        self.passes = [kernel()]

    def tick(self) -> None:
        self.passes.append(kernel())

    def factor(self) -> float:
        """Multiply a time measured in the phase by this to get it at reference speed."""
        return REFERENCE_S / statistics.median(self.passes)


if __name__ == "__main__":
    times = sorted(kernel() for _ in range(21))
    print(" ".join(f"{t:.4f}" for t in times))
    print(f"median {times[10]:.4f} s")
