"""A fixed reference computation that `wall_rel` divides pass times by.

On a shared 2-vCPU machine the CPU's speed drifts by ±20% over minutes, so
raw pass seconds from two runs a few minutes apart differ more than any
useful regression bound. Running this fixed computation just before each
pass and reporting the pass time in units of it cancels the drift: both
slow down together. It never imports commsim, so no change to the program
can move it. Editing it rescales `wall_rel` and so is a benchmark change.
"""

from __future__ import annotations

import gc
import math
import random
import time

import numpy as np


def run() -> float:
    """Run the reference once and return its wall seconds (about 0.14 s).

    The mix mirrors where the pipeline spends its time: Python tuples,
    dicts and sorting (simulator, metrics), and a loop over numpy scalars
    with math.exp (the fitter's and sampler's recursions).
    """
    gc.collect()  # the pass before leaves garbage; do not time its collection
    gc.disable()
    try:
        return _timed()
    finally:
        gc.enable()


def _timed() -> float:
    t = time.perf_counter()
    rng = random.Random(12345)
    counts: dict[int, int] = {}
    rows = []
    for i in range(40000):
        k = rng.randrange(2000)
        counts[k] = counts.get(k, 0) + 1
        rows.append((k, i))
    rows.sort()
    stamps = np.cumsum(np.arange(30000) % 7 + 1).astype(np.int64)
    g, last = 0.0, stamps[0]
    for s in stamps:
        g = g * math.exp(-(s - last) / 3600.0) + 1.0
        last = s
    if len(rows) != 40000 or not g > 0:
        raise AssertionError("reference computation went wrong")
    return time.perf_counter() - t
