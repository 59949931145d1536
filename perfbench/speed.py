"""Machine-speed reference for times measured on a shared, drifting host.

On a host shared with other tenants the same fixed work can take 50 to
120 ms from one second to the next, and whole minutes run fast or slow.
``kernel`` is a fixed, library-free piece of work of the same character
as the library's: small numpy calls between Python-level complex
arithmetic.  It holds no large arrays, so the cache state an op leaves
behind barely changes its time.  A run samples it between
ops; each op's times are divided by the local ``factors`` entry, the
median of the nearest ``WINDOW`` samples over ``REFERENCE_S``.  Times are
thus reported at the speed where the kernel takes ``REFERENCE_S``.  The
raw times and the factors are kept in each result's details.  Set-up
is scaled the same way, by the kernel samples taken between its steps.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010  # the kernel on an unloaded 2-core Xeon VM
SAMPLE_EVERY_S = 0.25  # kernel samples interleaved with the timed ops
WINDOW = 3  # samples in the median that gives one op's factor

_C = np.array([1.0, -0.3 + 0.2j, 0.7j, 0.1, -0.5 + 0.5j, 0.2, -0.1j, 0.3 - 0.4j, 0.9])
_Z = np.linspace(0.0, 1.0, 64) + 0.3j


def kernel() -> float:
    """Run the fixed reference work once; returns its wall time in s."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(40):
        r = np.roots(_C)
        acc += np.sum(np.polyval(_C, _Z + k)) + r[0]
        for j in range(150):
            acc = acc * 0.999 + complex(j, k) * 1e-9
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """How much slower than the reference the host ran over all samples."""
    return statistics.median(samples) / REFERENCE_S


def factors(samples: list) -> list:
    """Per sample: how much slower than the reference the host ran around
    it (> 1 is slower), from the median of the WINDOW nearest samples."""
    half = WINDOW // 2
    out = []
    for j in range(len(samples)):
        lo = max(0, min(j - half, len(samples) - WINDOW))
        out.append(statistics.median(samples[lo : lo + WINDOW]) / REFERENCE_S)
    return out
