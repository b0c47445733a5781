"""Host-speed reference: a fixed kernel timed around every job.

On a shared two-core host the same code runs up to about 45% slower for
seconds at a time, in Python and BLAS alike, because of load outside the
benchmark's control.  Timing the same small kernel before and after each job
tracks that slowdown, and the benchmark divides it out: a job time in
"reference seconds" is the wall time multiplied by the kernel's uncontended
time over its mean time just before and just after that job.  On an uncontended
host of the reference kind reference seconds equal wall seconds; the record
of every run keeps the raw wall times and the slowdown too.
"""

import statistics
import time

import numpy as np

# The mix's time on an uncontended 2-core Intel Xeon, Python 3.11, numpy 2.4
# with one OpenBLAS thread (5th percentile of 3930 timings).
REFERENCE_S = 0.90e-3


class SpeedReference:
    """Times a kernel and turns wall seconds into reference seconds.

    ``kernel`` is a zero-argument callable doing fixed work and
    ``reference_s`` its uncontended time; by default the mix below.  A
    workload whose time goes to larger arrays than the mix's passes its own
    bare matrix products instead, because under host load they slow down
    less than the mix does and as much as the workload does.
    """

    def __init__(self, kernel=None, reference_s=None):
        self._kernel = kernel or self._mix
        self._reference_s = reference_s or REFERENCE_S
        rng = np.random.default_rng(0)
        self._u = rng.random((17, 17))
        self._w = 0.01 * rng.random((17, 17))
        self._x = np.linspace(0.0, 1.0, 17)
        self._m = rng.random((32, 32))
        self._big = rng.random((64, 64))
        self._last = statistics.median(self.kernel_s() for _ in range(3))

    def kernel_s(self):
        """Wall time of one run of the kernel."""
        t = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t

    def _mix(self):
        """A mix like the small workloads' work: small matrix products and
        array updates with edge writes and a concatenate (a solver stage),
        64-by-64 products, a small eigenvalue solve, number formatting and
        dictionary work."""
        u, w, x = self._u, self._w, self._x
        for _ in range(12):
            du = w @ u - u * (u @ w.T) + 0.01 * (w @ u)
            u2 = 0.5 * u + 0.25 * du
            for f in (np.sin, np.cos):
                u2[0, :] = f(x)
                u2[:, -1] = f(x + 0.5)
            if not np.isfinite(u2).all():
                raise ArithmeticError("speed reference kernel diverged")
            u = np.concatenate([u2.ravel(), du.ravel()])[:u.size].reshape(u.shape)
        for _ in range(6):
            self._big @ self._big
        np.linalg.eigvals(self._m)
        "\n".join(format(v, ".17g") for v in self._m[:8].ravel())
        counts = {}
        for i in range(500):
            key = "k%d" % (i % 50)
            counts[key] = counts.get(key, 0) + i

    def slowdown(self):
        """Slowdown since the previous call: the mean of the kernel's time
        then and now (each the median of three runs), over its reference."""
        before = self._last
        self._last = statistics.median(self.kernel_s() for _ in range(3))
        return (before + self._last) / 2.0 / self._reference_s
