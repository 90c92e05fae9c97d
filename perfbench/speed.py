"""Host speed, measured with a fixed piece of work, so that times taken on a
shared host can be stated at one reference speed.

On the 2-vCPU shared host this benchmark was written on, neighbours slowed
every process by up to 2x, in bursts lasting from a fraction of a second to
minutes, so a raw wall time says as much about the neighbours as about the
program. The calibration kernel below is the same work in every run and every
commit: an interpreter loop, small numpy calls (eigvalsh on 8x8, 4x4
products, kron) and 64x64 complex matrix products, the three kinds of work
the workloads spend their time in. It does not touch cohfreeze.

A time t measured while the kernel takes c seconds is reported as
t * REFERENCE_S / c: the time the same work takes on a host where the kernel
takes REFERENCE_S. A change to the program moves t and leaves c alone.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's mean time on the host the benchmark was written on
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS on one thread),
# where it ranged from 5.5 to 9.5 ms. A fixed constant: only its ratio to
# the measured kernel time enters the results.
REFERENCE_S = 0.008

_rng = np.random.default_rng(0)
_H8 = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H8 = _H8 + _H8.conj().T
_M4 = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_M64 = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_I2 = np.eye(2)


def kernel() -> float:
    """Seconds taken by one run of the fixed work."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(12_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    for _ in range(45):
        np.linalg.eigvalsh(_H8)
        _M4 @ _M4.conj().T
        np.kron(_I2, _M4)
    x = _M64
    for _ in range(42):
        x = (_M64 @ x) * 0.01
    return time.perf_counter() - start


def at_reference(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, at REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_s
