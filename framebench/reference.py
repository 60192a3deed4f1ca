"""Reference kernel that measures how fast the machine is right now.

On a shared VM the same frame can take 1.0x to 1.9x its unloaded time.
The slowdown drifts over seconds to minutes and comes from outside the
guest, so a 30 s run cannot simply wait it out.  The benchmark times
this fixed kernel next to every frame and rescales each frame's wall
time to the speed the kernel had at NOMINAL_S.  The kernel mixes the
two kinds of work the pipeline does: pure-Python loops over lists (like
the distance transform's row pass) and whole-image numpy passes (like
labelling and calibration).  It does not call handdepth, so no change
to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an unloaded 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
# It only sets the scale of the normalized times.
NOMINAL_S = 1.30e-3

_rng = np.random.default_rng(20130417)
_ROWS = [_rng.integers(0, 400, size=120).tolist() for _ in range(12)]
_MASK = _rng.random((240, 320)) > 0.3


def kernel() -> int:
    out = 0
    for g in _ROWS:  # lower envelope of parabolas, as in an exact EDT row pass
        n = len(g)
        v, z, k = [0] * n, [0.0] * (n + 1), 0
        z[0], z[1] = -1e18, 1e18
        for q in range(1, n):
            fq = g[q] + q * q
            while True:
                p = v[k]
                s = (fq - (g[p] + p * p)) / (2 * q - 2 * p)
                if s <= z[k]:
                    k -= 1
                else:
                    break
            k += 1
            v[k], z[k], z[k + 1] = q, s, 1e18
        out += k
    for y in range(0, _MASK.shape[0], 4):  # run boundaries of mask rows
        out += np.flatnonzero(np.diff(np.concatenate(([0], _MASK[y].astype(np.uint8), [0])))).size
    out += int(np.where(_MASK, 1.5, 0.0).sum())
    return out


def timed() -> float:
    """Seconds one kernel call takes now.

    A first, untimed call brings the kernel's code and data back into the
    caches, so the timed call measures the machine rather than how much
    the preceding frame evicted.
    """
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
