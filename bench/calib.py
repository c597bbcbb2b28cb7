"""Drift calibration: fixed reference work timed in short bursts.

The host's CPU speed drifts, within seconds and between runs, by far more
than the changes the benchmark must resolve.  So every timed item (or short
run of items) is bracketed by two bursts of fixed reference work, and its
time is scaled by ``nominal / mean(burst before, burst after)``: calibrated
figures read as if the host ran the reference in exactly its nominal time.

Three references, one per kind of work, all the benchmark's own and none
calling into ``tropical_heights``:

* ``LOOP``, for pure-Python work in this process (corpus-sweep): a loop of
  integer, dict, tuple and ``Fraction`` work, like the program's exact layer;
* ``NUMERIC``, for work in small numpy calls in this process (height-scan,
  torus-lab): 3x3 solves, Cholesky factors, einsum and a 64-point complex
  log-product, like the asymptotics and lab layers.  Beside height-scan the
  loop misled: in one run it read 20 % slow while the items ran at their
  usual speed.  With this reference, six runs whose raw medians ranged from
  17 to 26 ms calibrated to 20.5-21.3 ms;
* ``SPAWN``, for work in child interpreters (CLI invocations, set-up
  probes): starting a bare interpreter (``-I -S -c pass``).  A child's
  start-up is mostly imports, page faults and file reads, which the loop
  tracks poorly: beside 380 ms CLI invocations, 10 s windows scaled by the
  loop still spread by +-12 %, scaled by bare starts by +-1 %.

A burst runs only while this process has no other thread and no live child
process, with the garbage collector off, so nothing the
program leaves behind can slow the reference down and flatter the
program's own figures.

Importing this module imports no numpy: ``SPAWN`` bursts also run before
the program and numpy are imported; ``NUMERIC`` imports numpy when it runs.
"""

import gc
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

# Never change the work or the nominal times: calibrated figures are
# comparable across commits only while both stay the same.
REF_ITERATIONS = 1500


def _reference(n=REF_ITERATIONS):
    acc = 0
    table = {}
    frac = Fraction(0)
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + (i ^ acc) % 97
        acc = (acc + i * 7 + len(str(i))) & 0xFFFFFF
        acc ^= hash((i, key)) & 0xFF
        if key & 7 == 0:
            frac = frac / 2 + Fraction(key + 1, (i & 15) + 1)
    return acc + len(table) + frac.denominator


_ARRAYS = {}


def _numeric_reference(n=60):
    """Small dense linear algebra and a short complex log-product."""
    import numpy as np
    if not _ARRAYS:
        _ARRAYS["m"] = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
        _ARRAYS["v"] = np.array([1.0, -2.0, 0.5])
        _ARRAYS["x"] = np.linspace(0.0, 1.0, 64)
    m, v, grid = _ARRAYS["m"], _ARRAYS["v"], _ARRAYS["x"]
    acc = 0.0
    for i in range(n):
        a = m + (i & 7) * 1e-3 * np.eye(3)
        np.linalg.cholesky(a)
        x = np.linalg.solve(a, v)
        acc += float(np.einsum("i,ij,j->", x, a, x))
        acc += float(np.sum(np.log(np.abs(1.0 - 0.5 * np.exp(2j * np.pi * (grid + x[0]))))))
    return acc


def _bare_interpreter():
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _single_threaded():
    # A thread already joined can still be listed for a moment while the
    # kernel ends it, so wait briefly for those; never for a live one.
    deadline = time.monotonic() + 0.5
    while _thread_count() != 1:
        if threading.active_count() != 1 or time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _has_child():
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    if pid:
        raise RuntimeError(f"reaped an unexpected child process {pid}")
    return True


class Reference:
    """Fixed reference work and its nominal time per run, in ms."""

    def __init__(self, name, work, nominal_ms):
        self.name = name
        self.work = work
        self.nominal_ms = nominal_ms

    def burst(self, runs=1):
        """Mean time of ``runs`` back-to-back runs of the work, in ms.

        Longer items get longer bursts (see ``runs_for``), so that the
        bursts see as much of the host's changing speed as the item does.
        """
        if not _single_threaded():
            raise RuntimeError("reference burst needs a single-threaded process")
        if _has_child():
            raise RuntimeError("reference burst needs no live child process")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(runs):
                self.work()
            return (time.perf_counter() - t0) * 1e3 / runs
        finally:
            if was_enabled:
                gc.enable()

    def runs_for(self, seconds):
        """Burst length, in runs, for work of about ``seconds``: a tenth of
        it, from one to ten runs."""
        return max(1, min(10, round(seconds * 1e3 / (10 * self.nominal_ms))))

    def factor(self, before_ms, after_ms):
        """Scale for work timed between two bursts."""
        return self.nominal_ms / ((before_ms + after_ms) / 2.0)


LOOP = Reference("loop", _reference, 3.0)
NUMERIC = Reference("numeric", _numeric_reference, 3.0)
SPAWN = Reference("spawn", _bare_interpreter, 20.0)
