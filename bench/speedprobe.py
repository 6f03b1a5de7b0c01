"""Machine-speed probe: time a fixed kernel during an operation, on its thread.

On a shared virtual machine the speed of a vCPU swings between a fast and a
slow state about 1.5x apart, from well under a second to minutes at a time, as
other tenants load the host. The timed call slows with it, so its wall time
measures the host as much as the program. ``SpeedProbe`` samples that speed
while a phase runs: a ``SIGALRM`` handler runs a fixed kernel in the same
thread, so on the same vCPU, and times it. A phase's time is then reported as

    normalized_s = (wall_s - probe time in the phase) * reference_s / mean probe time,

that is, the time the phase would take at the speed where the kernel takes
``reference_s``. The kernels do not touch helmrecon, so a change to the
library moves the wall time but not the probe's.

Two kernels: ``NumpyKernel``, the mix of one forward evaluation, for the timed
call, and ``PythonKernel``, pure Python, for set-up, which starts before
numpy is imported. Python runs a signal handler between bytecodes, so a probe
due during a long C call (a SuperLU solve) runs when the call returns. A
nested signal during a probe is skipped.
"""

import signal
import time


class PythonKernel:
    """Dictionary, sort and string work; about 0.3 ms in the fast state of a
    2-vCPU Xeon virtual machine and 0.5 ms in its slow state."""

    reference_s = 0.0003
    interval_s = 0.02

    def __call__(self):
        t0 = time.perf_counter()
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        "".join(str(v) for v in sorted(counts.values()))
        return time.perf_counter() - t0


class NumpyKernel:
    """A small sparse LU factor and solve, a dense product and a short loop of
    small numpy calls; about 1.9 ms in the fast state and 3 ms in the slow one."""

    reference_s = 0.002
    interval_s = 0.05

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self._np, self._splu = np, spla.splu
        n = 24  # the sparse system is the 5-point Laplacian on an n x n grid
        e = np.ones(n)
        lap1 = sp.diags([-e[:-1], 4.0 * e, -e[:-1]], [-1, 0, 1])
        off = sp.diags([-e[:-1], -e[:-1]], [-1, 1])
        self._a = (sp.kron(sp.eye(n), lap1) + sp.kron(off, sp.eye(n))
                   - 0.5 * sp.eye(n * n)).tocsc()
        self._rhs = np.random.default_rng(0).standard_normal((n * n, 24))
        self._m = np.random.default_rng(1).standard_normal((64, 64))

    def __call__(self):
        t0 = time.perf_counter()
        x = self._splu(self._a).solve(self._rhs)
        self._m @ self._m.T
        for i in range(40):
            self._np.clip(x[i, :4], -1.0, 1.0).sum()
        return time.perf_counter() - t0


class SpeedProbe:
    """Probe timings grouped by phase; probe time is kept out of phase wall times."""

    def __init__(self):
        self._busy = False
        self._phase = None
        self.kernels = {}  # phase -> kernel
        self.samples = {}  # phase -> [probe seconds]
        self.overhead = {}  # phase -> seconds spent in the handler

    def _sample(self, *_):
        if self._busy or self._phase is None:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples[self._phase].append(self.kernels[self._phase]())
        finally:
            self.overhead[self._phase] += time.perf_counter() - t0
            self._busy = False

    def start(self, phase, kernel):
        """Probe with ``kernel`` every ``kernel.interval_s``, counting under ``phase``."""
        self._phase = phase
        self.kernels[phase] = kernel
        self.samples.setdefault(phase, [])
        self.overhead.setdefault(phase, 0.0)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, kernel.interval_s, kernel.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._phase = None

    def normalize(self, phase, wall_s):
        """Wall time of ``phase`` without its probes, rescaled to the reference speed.

        Call after ``stop``. A phase too short to be probed is probed now, once.
        """
        kernel, samples = self.kernels[phase], self.samples[phase]
        if not samples:
            samples.append(kernel())
        return (wall_s - self.overhead[phase]) * kernel.reference_s * len(samples) / sum(samples)

    def summary(self, phase):
        samples = self.samples[phase]
        return {"n": len(samples), "overhead_s": self.overhead[phase],
                "mean_ms": 1e3 * sum(samples) / len(samples)}
