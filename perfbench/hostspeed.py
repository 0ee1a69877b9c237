"""Host speed, measured between timed items, to rescale host time.

The benchmark's host is a shared machine whose speed drifts by up to
~1.5x over minutes (CPU time drifts with wall time, so process time
does not help).  Between timed items the benchmark runs a fixed kernel
for a short slice; its rate over :data:`NOMINAL_RATE` is the host's
speed factor at that moment.  A timed item's *reference seconds* are
its host seconds times the mean factor of the slices on either side:
the time it would have taken at the nominal speed.

Set-up is mostly ``import repro`` in a fresh interpreter, which follows
the in-process kernel poorly; :func:`import_factor` times a fixed set
of standard-library imports in a fresh interpreter instead.

Both references use only the standard library and numpy, never
``repro``, so a change to the program cannot change the scale it is
measured on.  The kernel's mix (objects with slots, dict and list
updates, a heap, a seeded ``random.Random``, small numpy masks) follows
what the simulator does per cycle.
"""

from __future__ import annotations

import gc
import heapq
import random
import subprocess
import sys
import time

import numpy as np

#: kernel calls per second at the nominal speed: the median rate of the
#: host the committed baseline was measured on (a 2-CPU x86_64 VM)
NOMINAL_RATE = 175.0
#: seconds of one speed slice
SLICE_S = 0.2
#: seconds of :data:`_IMPORTS` at the nominal speed, on the same host
NOMINAL_IMPORT_S = 0.105
_IMPORTS = ("import time; t = time.perf_counter(); "
            "import argparse, asyncio, concurrent.futures, csv, dataclasses, "
            "decimal, email.mime.multipart, http.client, json, logging, "
            "sqlite3, tarfile, unittest, xml.dom.minidom, zipfile; "
            "print(time.perf_counter() - t)")


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


_NODES = [_Node(i, i * 3 % 17) for i in range(64)]
_ARRAY = np.arange(256, dtype=np.int64)


def kernel(n: int = 2000) -> int:
    """A fixed amount of interpreter and numpy work."""
    rng = random.Random(7)
    counts: dict[int, int] = {}
    heap: list = []
    acc = 0
    for i in range(n):
        node = _NODES[i & 63]
        k = (node.a * 31 + i) % 97
        counts[k] = counts.get(k, 0) + node.b
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[1]
        if i % 16 == 0:
            acc += int(_ARRAY[(_ARRAY + i) % 5 == 0].sum())
        acc += len([x for x in (node.a, node.b, k) if x & 1])
    return acc


def factor(seconds: float = SLICE_S) -> float:
    """Run the kernel for about ``seconds`` with GC parked; the host's
    speed factor."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calls = 0
        while True:
            kernel()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return calls / elapsed / NOMINAL_RATE
    finally:
        gc.enable()


def import_factor() -> float:
    """Time :data:`_IMPORTS` in a fresh interpreter; the host's speed
    factor for fresh-interpreter start-up work."""
    out = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True,
                         text=True, check=True, timeout=60)
    return NOMINAL_IMPORT_S / float(out.stdout)
