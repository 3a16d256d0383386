"""Machine-speed calibration.

On the shared 2-vCPU machine the benchmark was built on, the speed of the
same code drifts by up to 1.8x over tens of seconds to minutes (other
tenants), so a whole 36-second run can sit in a slow or a fast phase and
as-measured medians differ by 20-30% between runs. A fixed reference kernel
slows down in step with the program: next to each timed operation, the
kernel's time tracks the operation's time with a correlation of about 0.8.

So every timed operation is bracketed by runs of the kernel, and its time is
reported at the machine's reference speed:

    adjusted = measured * REFERENCE_KERNEL_S / mean(kernel before, kernel after)

REFERENCE_KERNEL_S is the kernel's median time on that machine, so adjusted
figures read like typical measured ones there. The kernel uses no program
code, so a change to the program moves the adjusted figures exactly as it
moves the measured ones. It runs in the benchmark's own thread with the
garbage collector off, so the program's heap does not change its time; a
program that kept its own threads busy between operations would slow the
kernel and hide that cost, which is why the as-measured medians are printed
too.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

REFERENCE_KERNEL_S = 0.0078
_ITERATIONS = 3000


class Calibrator:
    """Times the reference kernel: blake2b hashing, dict inserts and small
    float64 dot products, the same mix of interpreter and numpy work as the
    program's hot paths."""

    def __init__(self):
        self._vectors = np.random.default_rng(12345).standard_normal((64, 256))
        self._keys = [b"feature %d" % i for i in range(_ITERATIONS)]

    def kernel_s(self) -> float:
        """Median of three back-to-back kernel runs, so one interrupt does not
        skew the scale of the operations next to it."""
        return sorted(self._kernel_once() for _ in range(3))[1]

    def _kernel_once(self) -> float:
        vectors, keys = self._vectors, self._keys
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0.0
            table = {}
            for i, key in enumerate(keys):
                table[hashlib.blake2b(key, digest_size=8).digest()] = (i, acc)
                acc += float(vectors[i & 63] @ vectors[(i * 7) & 63])
            sorted(table.values())
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def factor(self, before: float, after: float) -> float:
        """Scale from measured to reference-speed time for an operation
        bracketed by kernel times `before` and `after`."""
        return REFERENCE_KERNEL_S / ((before + after) / 2)
