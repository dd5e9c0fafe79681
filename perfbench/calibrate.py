"""A fixed calibration kernel that tracks the speed of a shared host.

The reference machine is shared: its speed drifts by up to 1.75x over tens
of seconds, and a run's median pass time drifts with it. The kernel below
never changes and never touches the program, so its time measures only the
host. Timed right before and right after a pass, it gives the pass a scale
factor ``REFERENCE_S / kernel time``; a pass time multiplied by that factor
is the time the pass would have taken with the host at its usual speed.

The kernel mixes the two kinds of work the program does: a pure-Python loop
of integer arithmetic and dict stores, and small numpy array operations.

Set-up in a fresh process is mostly interpreter start-up work, importing
modules and loading extensions, and the kernel does not track it (on the
reference machine their times correlated at 0.1). Set-up is therefore
scaled by the time a fresh interpreter takes to import numpy, which the
program needs but does not contain (correlation 0.76).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median times on the reference machine (2-core shared x86 host, CPython
# 3.11, numpy 2.4), so that host-normalised times read like seconds there.
REFERENCE_S = 0.17
IMPORT_REFERENCE_S = 0.088

_IMPORT_CHILD = """
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""

_ARRAY = np.random.default_rng(0).random((300, 300))


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(600_000):
        total += i * i % 7
        table[i & 1023] = total
    for row in _ARRAY:
        (_ARRAY * _ARRAY + _ARRAY).sum()
        np.argsort(row)
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy, as it measures itself."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor that turns a time measured between two calibrations into
    host-normalised seconds."""
    return reference / ((before + after) / 2)
