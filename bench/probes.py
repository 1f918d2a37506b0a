"""Fixed reference loops that measure the host's current speed.

On a shared host the same code runs up to ~40% slower for tens of seconds
at a time (a fixed loop's 15-second medians differ by that much), so raw
rates from runs minutes apart do not compare.  A probe is a short fixed
piece of work of the same kind as a workload's, written here and never
changed: the benchmark runs it between operations and scales each
operation's time by NOMINAL / (probe time nearby), giving its time at a
fixed reference speed.  Measured over 90 s, this took the range of
15-second medians from 30-43% down to 2.5-4.4% with the matching probe
(Python objects for the exact and combinatorial paths, numpy arrays for
the bulk kernel); a mismatched probe left 12-18%.
"""

import time
from fractions import Fraction

import numpy as np

_A = np.arange(24, dtype=np.int64)
_B = np.arange(1, 25, dtype=np.int64)
_M = np.random.default_rng(0).integers(0, 11, size=(1024, 40))


def _python_work():
    """Fractions, dicts and short numpy convolutions, as in the series
    arithmetic and the poset engine."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 600):
        acc += Fraction(i % 7, i % 5 + 1)
        seen[i % 97] = seen.get(i % 97, 0) + i
    for _ in range(150):
        np.convolve(_A, _B) % 11
    return acc


def _numpy_work():
    """Block FFT products and uint64 hashing on arrays the size of the
    bulk kernel's blocks."""
    spec = np.fft.rfft(_M, 128, axis=1)
    for _ in range(3):
        np.rint(np.fft.irfft(spec * spec, 128, axis=1)[:, :40]).astype(np.int64) % 11
    h = _M.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return h ^ (h >> np.uint64(31))


class Probe:
    """One reference loop and the time it takes at the reference speed
    (close to its time on the machine the README's figures come from)."""

    def __init__(self, work, nominal_s):
        self.work = work
        self.nominal_s = nominal_s

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


PYTHON = Probe(_python_work, 0.003)
NUMPY = Probe(_numpy_work, 0.006)
