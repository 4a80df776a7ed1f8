"""Host-speed sampling, so that timings from a shared host can be compared.

On a virtual machine that shares its cores with other tenants, the same
single-threaded operation can take 0.6 s in one second and 1.1 s in the next:
the processor itself runs slower while neighbours are busy, and the process's
CPU time slows with it.  Wall time alone then measures the neighbours.

While an interval is measured, :class:`Sampler` interrupts the process every
``INTERVAL_S`` (``SIGALRM``) and times one run of a fixed calibration kernel
(:func:`kernel`): a mix of interpreted Python and small numpy FFTs, like the
program.  The kernel's time moves with the host's speed.  :func:`rescale`
turns the measured interval, less the time spent in the kernel, into the time
it would have taken at the reference speed, where one kernel run takes
``REF_KERNEL_S``:

    reference time = (wall - kernel time) * REF_KERNEL_S / median(kernel runs)

The kernel and ``REF_KERNEL_S`` are fixed, so a change to the program moves
the rescaled time as it moves the wall time.  The handler runs between
Python bytecodes, so a long call into compiled code delays a sample but is
still measured.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Time between samples; one kernel run costs about 1 % of it.
INTERVAL_S = 0.05
# One kernel run at the reference speed: its fastest runs on a 2.1 GHz Xeon
# vCPU with Python 3.11 and numpy 2.4.  Any fixed value would do; this one
# keeps rescaled times close to wall times when that host is unloaded.
REF_KERNEL_S = 0.0005

_A = np.random.default_rng(0).standard_normal((32, 32))
_Z = np.exp(1j * np.linspace(0.0, 3.0, 64))
_rfft2 = np.fft.rfft2
_irfft2 = np.fft.irfft2


def kernel() -> float:
    """Fixed work in three parts, like the program's: a dict-and-float loop,
    ufuncs on short complex vectors and 32x32 FFT round trips."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(400):
        table[i] = i * 0.5
        total += table[i] * 1.0001
    for _ in range(25):
        z = 0.5 * _Z - _Z * _Z + 1j * _Z.real
        total += float(np.abs(z).max())
    for _ in range(8):
        b = _irfft2(_rfft2(_A), _A.shape)
        total += float(b[0, 0] * 1.0001 + _A[0, 0])
    return total


class Sampler:
    """Times one kernel run every ``INTERVAL_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls that a sample interrupts.
        signal.siginterrupt(signal.SIGALRM, False)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop sampling; return the kernel times since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return self.samples


def rescale(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` less the kernel runs in it, at the reference speed.

    With no sample (an interval shorter than ``INTERVAL_S``) one kernel run
    is timed on the spot.
    """
    if not samples:
        start = time.perf_counter()
        kernel()
        return wall_s * REF_KERNEL_S / (time.perf_counter() - start)
    return (wall_s - sum(samples)) * REF_KERNEL_S / statistics.median(samples)
