"""Machine-speed references for normalizing wall times.

The shared VMs this benchmark runs on share cores with other tenants, and
their speed drifts by up to 2x over tens of seconds: the same round takes
0.9 s in one minute and 1.8 s in the next.  A fixed reference kernel, timed
just before and just after each round, measures the machine's speed at that
moment; a round's time divided by the reference time does not drift with it.

The kernel is benchmark code and never changes with the package.  It mixes
the kinds of work the package does: small numpy column updates on a
(120, 2) uint64 array (gate updates), Python-int GF(2) elimination (rank),
text splitting and int parsing (program files) and dense complex numpy
(oracle).  Normalized seconds are "seconds on a machine where the kernel
takes REFERENCE_S"; `REFERENCE_S` is about the kernel's time on a quiet
2-core Xeon VM, so normalized and raw seconds agree there.
"""

from __future__ import annotations

import random
import time

import numpy as np

REFERENCE_S = 0.0032
REPEATS = 2

# Import time follows a different speed: that of a fresh interpreter reading
# and loading modules.  Its reference is a fresh interpreter importing a
# fixed set of standard-library modules (pure Python and C extensions, no
# numpy), timed inside the child; IMPORT_REFERENCE_S is about its time on
# the same quiet VM.
IMPORT_REFERENCE = """
import time
t0 = time.perf_counter()
import argparse, asyncio, ctypes, dataclasses, decimal, email.parser, http.client, json
import sqlite3, unittest, xml.etree.ElementTree
print(time.perf_counter() - t0)
"""
IMPORT_REFERENCE_S = 0.065

_ONE = np.uint64(1)


def reference_kernel() -> int:
    rng = random.Random(7)
    x = np.zeros((120, 2), dtype=np.uint64)
    z = np.zeros((120, 2), dtype=np.uint64)
    for i in range(120):
        z[i, i >> 6] = _ONE << np.uint64(i & 63)
    for _ in range(150):
        t = rng.randrange(120)
        w, b = t >> 6, np.uint64(t & 63)
        d = (x[:, w] ^ z[:, w]) & (_ONE << b)
        x[:, w] ^= d
        z[:, w] ^= d
        c = rng.randrange(118)
        wc, bc = c >> 6, np.uint64(c & 63)
        w1, b1 = (c + 1) >> 6, np.uint64((c + 1) & 63)
        v = (x[:, wc] >> bc) & _ONE
        s = ((x[:, w1] >> b1) & _ONE) ^ ((z[:, w1] >> b1) & _ONE)
        z[:, wc] ^= s << bc
        x[:, w1] ^= v << b1
        z[:, w1] ^= v << b1
    rows = [
        int.from_bytes(x[i].tobytes(), "little") | int.from_bytes(z[i].tobytes(), "little") << 128
        for i in range(120)
    ]
    rank = 0
    for _ in range(3):
        pivots: dict = {}
        for row in rows:
            while row:
                h = row.bit_length() - 1
                p = pivots.get(h)
                if p is None:
                    pivots[h] = row
                    break
                row ^= p
        rank += len(pivots)
    text = "\n".join(f"SWAP {i} {i + 1}" for i in range(1, 400))
    parsed = sum(int(f) for line in text.splitlines() for f in line.split()[1:])
    amps = np.ones(1 << 10, dtype=complex)
    idx = np.arange(1 << 10)
    for site in range(10):
        amps[idx ^ (1 << site)] = amps * (1j if site & 1 else -1)
    sv = np.linalg.svd(amps.reshape(32, 32), compute_uv=False)
    return rank + parsed + int(sv[0] > 0)


def reference_seconds() -> float:
    """Mean wall time of the reference kernel, now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        reference_kernel()
    return (time.perf_counter() - start) / REPEATS
