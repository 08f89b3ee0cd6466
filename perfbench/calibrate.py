"""A fixed computation that samples the machine's speed where ckl runs.

The benchmark runs on a shared host whose speed drifts: the same pass of ops
can take twice as long a few minutes later.  ``calibrate()`` uses no ckl
code, so no change to ckl moves it.  Each op's child runs it just before and
just after the timed op, and each set-up interpreter just after ``import
ckl``; the benchmark multiplies every time by ``REFERENCE_S`` over the mean
of the samples taken in the same process.  Samples taken in the parent
process tracked the ops poorly, and a sample before a long op alone tracked
it worse than the mean of one before and one after.  Its parts mirror what
ckl's ops do: chart Jacobians and metric determinants over a node array,
many tiny eigenvalue calls, and ``%.17g`` formatting.
"""

from __future__ import annotations

import time

import numpy as np

# calibrate()'s typical time on the 2-vCPU machine where the benchmark was
# defined; scaled times read as seconds at that speed
REFERENCE_S = 0.12


def calibrate() -> float:
    """Wall time of the fixed computation, in seconds."""
    start = time.perf_counter()
    u = np.linspace(0.1, 3.0, 60_000)
    for _ in range(2):
        v = u[::-1].copy()
        jac = np.empty((u.size, 3, 2))
        jac[:, 0, 0] = -np.sin(u) * np.cos(v)
        jac[:, 0, 1] = -np.cos(u) * np.sin(v)
        jac[:, 1, 0] = -np.sin(u) * np.sin(v)
        jac[:, 1, 1] = np.cos(u) * np.cos(v)
        jac[:, 2, 0] = np.cos(u)
        jac[:, 2, 1] = 0.0
        metric = np.einsum("nki,nkj->nij", jac, jac)
        float(np.sqrt(np.abs(np.linalg.det(metric))).sum())
    for i in range(2000):
        a = np.array([[2.0, i * 1e-3, 0.0], [i * 1e-3, 2.0, 0.1],
                      [0.0, 0.1, 1.0]])
        float(np.linalg.eigvalsh(a)[0])
    "".join("%.17g,%.17g\n" % (x, x * x) for x in u[:20_000].tolist())
    return time.perf_counter() - start
