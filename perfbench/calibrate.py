"""Host-speed calibration: a fixed kernel timed between the ops of a pass.

The benchmark shares a few cores of a host whose speed drifts by 20-35%
over tens of seconds to minutes, with the load of other tenants.  That
drift moves every op of a run alike, so no median over the run removes it.
The worker therefore times this kernel before every op and after the last
one, and run.py scales each op's latency by

    scale = REFERENCE_S / (median of the six kernel times nearest the op),

three taken before it and three after, and the set-up time by the same
ratio over the median kernel time of the pass.  The reported times are
seconds at the host speed at which the kernel takes REFERENCE_S; the raw
times are printed beside them.  A window of a few ops follows drift within
a pass, and its median ignores a kernel run that an interrupt slowed.

The kernel mixes the two kinds of work the library does: interpreted
arithmetic on Python ints, complex numbers and dicts (the oracle's shape)
and numpy on arrays of a few thousand elements (the g kernel's shape).  It
is part of the benchmark, so no change to the library can change it, and
it runs with the garbage collector off, so the size of the library's heap
does not change its time either.
"""

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.014  # kernel time at the reference host speed (median on a 2-core Xeon)


def kernel() -> complex:
    d = {}
    acc = 0j
    z = complex(0.3, 0.7)
    for i in range(10_000):
        d[i * 7919 % 100_003] = i
        acc += z ** (i % 17) / (1 + i)
    acc += sorted(d.items(), key=lambda kv: kv[1] % 1013)[0][0]
    a = np.arange(1.0, 20_001.0)
    for j in range(12):
        acc += complex(np.sum(np.exp(-a / (j + 1.0)) * np.cos(a * 0.001 * j)))
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def op_scales(kernel_s: list) -> list:
    """The scale of each op of a pass, from the kernel times taken before
    each op and after the last one (one more than there are ops)."""
    return [
        REFERENCE_S / statistics.median(kernel_s[max(0, i - 2):i + 4])
        for i in range(len(kernel_s) - 1)
    ]
