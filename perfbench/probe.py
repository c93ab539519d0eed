"""A probe of how fast the shared host runs this process right now.

On a shared host, other tenants slow whole seconds of a run by up to 1.7x
while CPU time stays equal to wall time. The benchmark runs this fixed,
benchmark-owned work right before and right after a timed operation and
divides the operation's wall time by the mean slowdown the probe saw. The
probe never calls the program, so a faster program still reads faster.
"""

import time

import numpy as np


class Probe:
    """Two kinds of fixed work: ``compute`` (about 7 ms of small
    matrix-vector products, tanh and dict inserts, like the encoder's inner
    loop) and ``memory`` (allocate and stream over a fresh 32 MB array, like
    Adam's temporaries over a large model; freed at once, so it never adds
    to an operation's peak RSS)."""

    # Each kind's time on an idle core of the reference host (2-core Xeon VM).
    REF_S = 0.0068
    MEMORY_REF_S = 0.0052

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((50, 100))
        self.u = rng.standard_normal((50, 50))
        self.x = rng.standard_normal((3, 100))

    def slowdown(self, memory: bool = False) -> float:
        """Current probe time as a multiple of its idle-core time; with
        ``memory`` the mean of the compute and the memory kind."""
        compute = self._compute()
        if not memory:
            return compute
        t0 = time.perf_counter()
        buf = np.ones(4_000_000)
        for _ in range(3):
            np.multiply(buf, 1.0000001, out=buf)
        del buf
        return (compute + (time.perf_counter() - t0) / self.MEMORY_REF_S) / 2

    def _compute(self) -> float:
        t0 = time.perf_counter()
        acc = {}
        for i in range(600):
            h = np.zeros(50)
            for x in self.x:
                h = np.tanh(self.w @ x + self.u @ h)
            acc[i] = float(h[0])
        return (time.perf_counter() - t0) / self.REF_S
