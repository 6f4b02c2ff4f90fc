"""Scale measured times to a fixed machine speed.

On a shared 2-vCPU virtual machine the same work runs up to 2x slower for
tens of seconds at a time: other guests contend for the physical core, and
CPU time tracks wall time, so the guest sees no stolen time it could
subtract.  A trial timed in a slow stretch would read as a slower program.
So right before each timed item the benchmark times a short fixed loop of
the same kind of work (small complex numpy operations driven from Python,
no beamest code) and scales the item's time by ``REFERENCE_S`` over the
loop's time.  Reported times are milliseconds on a machine where the loop
takes ``REFERENCE_S`` (about the unloaded speed of a 2.1 GHz vCPU with
numpy 2.4); the unscaled throughput is printed beside them.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 150e-6

_A = np.random.default_rng(0).standard_normal((16, 32)).view(complex)


def reference_s() -> float:
    """Seconds one pass of the fixed reference loop takes now."""
    t0 = perf_counter()
    v = _A[0]
    acc = 0.0
    for k in range(12):
        w = _A @ v
        v = np.fft.ifft(w) / (1.0 + float(np.abs(w).max()))
        acc += float(np.sum(v.real * v.real)) + math.sin(k * 0.1)
    return perf_counter() - t0


def scale(repeats: int = 1) -> float:
    """Factor that turns a time measured now into reference-speed time."""
    return REFERENCE_S / min(reference_s() for _ in range(repeats))
