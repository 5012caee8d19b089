"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a shared virtual machine whose speed drifts by 20
to 40% over minutes, because of what other tenants run on it.  A drift of
that size swamps the changes the benchmark is meant to see.  Each child
therefore times this kernel right after its measured phase.  Children run
one after the other, so a measured phase lies between the kernel passes of
the child before and those of its own child.  The end-to-end times are
then given in reference seconds:

    reference_s = measured_s * REFERENCE_KERNEL_S / kernel_s

Here `kernel_s` is the median over those two sets of kernel passes, and
`REFERENCE_KERNEL_S[n]` is the kernel's median time at grid size n on the
machine that defined the benchmark.  The raw wall times are kept next to
them in the result file.

The kernel depends on numpy alone, never on ktflow.  A change to ktflow can
therefore never move it, and a program that gets 10% faster reads 10%
faster.  It mixes what a ktflow run spends its time on, at the workload's
grid size n: spectral derivatives of a (4, 4, n, n) stack, the connection
products that fill a (4, 4, 4, 4, n, n) curvature stack, and
interpreter-bound loops over small objects.  At n = 64 that stack outgrows
a 2 MB L2 cache, as the run's own does, so the kernel feels the same
memory contention.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time per grid size on the machine that defined the benchmark
# (a shared 2-vCPU x86_64 KVM guest, Intel Xeon, one numerical thread).
REFERENCE_KERNEL_S = {32: 0.052, 64: 0.060}
REPEATS = 3


def _spectral(rng, n, rounds):
    """Spectral x-derivatives of a (4, 4, n, n) stack, as BaseGrid.derivative."""
    a = rng.standard_normal((4, 4, n, n))
    ik = 1j * np.fft.fftfreq(n, 1.0 / n)[:, None]
    acc = 0.0
    for _ in range(rounds):
        da = np.real(np.fft.ifft2(np.fft.fft2(a, axes=(-2, -1)) * ik, axes=(-2, -1)))
        a = 0.5 * a + 0.1 * np.tanh(da)
        acc += float(np.max(np.abs(a)))
    return acc


def _curvature(rng, n, rounds):
    """Connection products into a (4, 4, 4, 4, n, n) stack and a contraction."""
    gamma = 0.1 * rng.standard_normal((4, 4, 4, n, n))
    j = rng.standard_normal((4, 4, n, n))
    acc = 0.0
    for _ in range(rounds):
        riemann = (np.einsum("bcexy,adexy->abcdxy", gamma, gamma, optimize=True)
                   - np.einsum("acexy,bdexy->abcdxy", gamma, gamma, optimize=True))
        rho = np.einsum("abdcxy,dcxy->abxy", riemann, j, optimize=True)
        acc += float(np.sum(rho[0, 1]))
    return acc


class _Item:
    __slots__ = ("name", "value", "bound")

    def __init__(self, name, value, bound):
        self.name, self.value, self.bound = name, value, bound

    @property
    def ok(self):
        return self.value < self.bound


def _interpreter(rounds):
    items = [_Item(f"item{i}", i * 0.5, 100.0) for i in range(rounds)]
    table = {}
    for item in items:
        table[item.name] = item.ok and item.value * 2.0 or 0.0
    return sum(table.values())


def _kernel(n):
    """One pass at grid size n; its arrays scale with n as a run's do."""
    rng = np.random.default_rng(1234)
    rounds = max(1, (64 // n) ** 2)
    return (_spectral(rng, n, 4 * rounds) + _curvature(rng, n, rounds)
            + _interpreter(4000))


def kernel_times(n, repeats=REPEATS):
    """Wall times of `repeats` kernel passes at grid size n after one warm-up."""
    _kernel(n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel(n)
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    for size in sorted(REFERENCE_KERNEL_S):
        print(size, statistics.median(kernel_times(size, 20)))

