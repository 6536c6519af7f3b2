"""A fixed pure-Python kernel that measures how fast this host runs right now.

The benchmark's hosts share physical cores with other tenants, and their
speed drifts by tens of percent over seconds to minutes (see README.md).
Each benchmark process times slices of this kernel just before and just
after the work it measures; ``REFERENCE_SLICE_S`` over the median slice
time rescales the measured seconds to a host running at the reference
speed.

The kernel imports nothing from ``src/`` so that no change to the program
can change it.  It does what the engine spends its time on: small-integer
polynomial products, tuple keys and dictionary lookups.
"""

import time

SLICE_ITERS = 4000
SLICES_PER_SIDE = 6
# a typical median slice time on the host where the benchmark was defined;
# a constant, so that every run and commit is scaled to the same reference
REFERENCE_SLICE_S = 0.020


def _slice():
    table = {}
    acc = 0
    for i in range(SLICE_ITERS):
        a = [(i >> s) % 3 for s in range(6)]
        b = [(i * 7 >> s) % 3 for s in range(5)]
        out = [0] * 10
        for ia, x in enumerate(a):
            if x:
                for ib, y in enumerate(b):
                    out[ia + ib] = (out[ia + ib] + x * y) % 3
        key = tuple(out)
        table[key] = table.get(key, 0) + 1
        acc += len(table)
    return acc


def slices(n):
    """Seconds taken by each of ``n`` kernel slices."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _slice()
        out.append(time.perf_counter() - t0)
    return out
