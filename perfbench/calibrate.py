"""Machine-speed calibration interleaved with the operations.

On a shared 2-vCPU KVM guest (Xeon, Python 3.11) the speed changed by up to
1.8x for tens of seconds at a time, with CPU time moving with wall time, so
raw latencies of whole runs spread by 20-45% across runs.  After
every operation the benchmark times a fixed kernel of its own (no program
code) for a share of that operation's duration.  Each operation's latency
divided by the median kernel time measured right before and right after it
is its latency in kernel units: a slowdown of the machine scales both and
cancels, a slowdown of the program does not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CAL_SHARE = 0.1  # calibration time per second of operation time


def small_arrays() -> float:
    """About 1 ms of Python arithmetic and numpy calls on 2x2 arrays, the
    mix that dominates the symmetry, steiner, scalar and electrostatics
    layers."""
    acc = 0.0
    eye = np.eye(2)
    for j in range(100):
        c, s = math.cos(j), math.sin(j)
        m = np.array([[c, -s], [s, c]])
        acc += float(np.max(np.abs(m.T @ m - eye)))
    return acc


class LargeArrays:
    """Tens of ms of the maxwell layer's mix at N = 128: a complex
    exponential and a central difference on 8 MB arrays, each allocated
    fresh, so page faults are timed as in the program.  The phase array is
    allocated only when this kernel is used, so the benchmark process stays
    small for the other workloads (a forked child's peak RSS starts from its
    parent's)."""

    def __init__(self) -> None:
        self.phase = np.linspace(0.0, 10.0, 1 << 19)

    def __call__(self) -> float:
        wave = np.exp(1j * self.phase)
        diff = (np.roll(wave, -1) - np.roll(wave, 1)) / 2.0
        return float(diff[-1].real)


KERNELS = {"small_arrays": lambda: small_arrays, "large_arrays": LargeArrays}


class Calibrator:
    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]()
        self.after: list[list[float]] = []  # kernel seconds after each op

    def after_op(self, op_seconds: float) -> None:
        clock = time.perf_counter
        samples = []
        budget_end = clock() + CAL_SHARE * op_seconds
        while not samples or clock() < budget_end:
            t0 = clock()
            self.kernel()
            samples.append(clock() - t0)
        self.after.append(samples)

    def normalized(self, latencies: list[float]) -> list[float]:
        """Each latency in units of the kernel times bracketing it."""
        out = []
        for i, latency in enumerate(latencies):
            around = self.after[i] + (self.after[i - 1] if i else [])
            out.append(latency / statistics.median(around))
        return out

    def samples(self) -> list[float]:
        return [s for group in self.after for s in group]
