"""Host-speed reference kernels for the untraced run.

The benchmark shares a few cores of a host with other tenants, and the speed
it gets drifts by tens of percent over seconds and minutes. The drift moves
every piece of code at once, so a fixed kernel that the program does not
touch measures it: the runner times kernel calls between set-ups and between
operations, and a mean kernel time over the kernel's reference time is the
host factor of that phase of the run. A set-up time corrected for the host is
the measured time divided by the set-up's factor; a throughput corrected for
the host is the measured throughput times the rounds' factor. Both are what a
host that runs the kernel in its reference time would show. Throughputs and
factors are both means over the run, so they weigh the host's fast and slow
spells alike.

Each workload has a kernel with the same mix of work as its operations:
small gathers and scatters (simulate), dense and sparse products with
masked sigmoids (train), symmetric eigendecompositions (coarsen). The
kernels and their inputs are fixed: they depend on no seed and on nothing in
``src/``, so a change to the program moves the corrected throughput exactly
as it moves the measured one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# about the kernels' mean seconds on a 2-vCPU Xeon host (2 MiB L2, BLAS on
# one thread); they only set the scale of corrected throughputs
REFERENCE_S = {"scatter": 0.036, "dense": 0.033, "eig": 0.068}


def _scatter_inputs():
    rng = np.random.default_rng(0)
    out = []
    for n in (156, 624):
        pos = rng.normal(size=(n, 3))
        idx = rng.integers(0, n, size=(3 * n, 3))
        out.append((pos, idx))
    return out


def _scatter(inputs):
    for pos, idx in inputs:
        for _ in range(80):
            forces = np.zeros_like(pos)
            energy = np.zeros(len(pos))
            d = pos[idx[:, 1]] - pos[idx[:, 0]]
            r = np.linalg.norm(d, axis=1)
            dr = r - 1.0
            f = np.where(r > 1e-12, dr / np.where(r > 1e-12, r, 1.0), 0.0)[:, None] * d
            np.add.at(forces, idx[:, 0], f)
            np.add.at(forces, idx[:, 1], -f)
            np.add.at(energy, idx[:, 2], 0.5 * dr * dr)


def _dense_inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 156, 10))
    w1 = 0.3 * rng.normal(size=(10, 64))
    w2 = 0.1 * rng.normal(size=(64, 256))
    z = sp.random(156, 156, density=0.99, random_state=1, format="csr")
    small = rng.normal(size=(156, 16))
    return x, w1, w2, z, small


def _masked_sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _dense(inputs):
    x, w1, w2, z, small = inputs
    for _ in range(2):
        h = x @ w1
        b, n, f = h.shape
        h = np.moveaxis((z @ np.moveaxis(h, 1, 0).reshape(n, b * f)).reshape(n, b, f), 0, 1)
        h = _masked_sigmoid(h)
        h = _masked_sigmoid(h @ w2)
        h @ w2.T
        for _ in range(60):
            np.maximum(small + small, 0.0)


def _eig_inputs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(624, 624))
    return a + a.T, rng.normal(size=(624, 24))


def _eig(inputs):
    a, p = inputs
    lam, u = np.linalg.eigh(a)
    np.abs(u).argmax(axis=0)
    for _ in range(4):
        q = np.linalg.qr(p + u[:, :24])[0]
        (a @ q).T @ q


KERNELS = {
    "scatter": (_scatter_inputs, _scatter),
    "dense": (_dense_inputs, _dense),
    "eig": (_eig_inputs, _eig),
}


class HostClock:
    """Times a workload's kernel between operations and gives host factors.
    Before each operation the kernel runs once per ``period_s`` that the same
    part took last time, so the samples spread over the run in proportion to
    time and their mean is the host's mean speed over the run."""

    period_s = 0.5

    def __init__(self, kind):
        self.kind = kind
        make, self._run = KERNELS[kind]
        self._inputs = make()
        self._run(self._inputs)  # untimed: first calls load lazy parts of numpy and scipy
        self._last: dict = {}
        self.samples: list = []

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            self._run(self._inputs)
            self.samples.append(time.perf_counter() - t0)

    def before(self, part):
        self.sample(max(1, round(self._last.get(part, 0.0) / self.period_s)))

    def after(self, part, seconds):
        self._last[part] = seconds

    def factor(self, start=0, stop=None):
        """Mean time of ``samples[start:stop]`` over the reference time; above
        1 when the host ran slower than the reference."""
        return statistics.mean(self.samples[start:stop]) / REFERENCE_S[self.kind]
