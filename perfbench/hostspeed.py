"""Wall time corrected for the speed of a shared host.

On a shared virtual machine the same code runs up to about twice as slow
at some moments as at others, in stretches of seconds to minutes, because
of what other tenants run on the same cores.  A run of this benchmark
times a few multi-second operations, so that drift alone would swing its
figures by a quarter from one run to the next.

``HostSpeed`` measures the drift while an operation runs.  A SIGALRM
interval timer interrupts the operation every ``INTERVAL_S`` seconds and
times one call of ``kernel``, a fixed piece of pure-Python sparse
polynomial arithmetic and dict look-ups of the benchmark's own.  It
shares no code with the program, so a change to the program cannot move
it.  The operation's time at reference speed is then

    (elapsed - time spent sampling) * REFERENCE_S / mean(kernel times)

where ``REFERENCE_S``, 1 ms, is about the kernel's mean time on an
unloaded 2-vCPU Intel Xeon virtual machine with Python 3.11.7.  It only
fixes the scale; both sides of a comparison use the same constant.  The
sampler runs in the one benchmark process and thread, between the
program's bytecodes, with the garbage collector paused so the program's
heap does not enter the kernel's time.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
REFERENCE_S = 0.001
_P = 32003
_TABLE_TERMS = 30000


def _terms(rng, count, nvars, degree):
    return [(tuple(rng.randrange(degree + 1) for _ in range(nvars)),
             rng.randrange(1, _P)) for _ in range(count)]


_RNG = random.Random(12345)
_TABLE = _terms(_RNG, _TABLE_TERMS, 6, 8)
_LOOKUP = dict(_TABLE)
_FACTOR = _terms(_RNG, 20, 6, 4)
_next = 0


def kernel():
    """Multiply the next 20 terms of a large table by a fixed 20-term
    polynomial mod p, looking every product up in a large dict (about
    1 ms).  The table and dict hold several MB, so that like the program
    the kernel waits on memory as well as on the processor."""
    global _next
    start = _next
    _next = (start + 20) % (_TABLE_TERMS - 20)
    acc = {}
    for e1, c1 in _TABLE[start:start + 20]:
        for e2, c2 in _FACTOR:
            exps = tuple(x + y for x, y in zip(e1, e2))
            acc[exps] = (acc.get(exps, 0) + c1 * c2
                         + _LOOKUP.get(exps, 0)) % _P
    return sorted(acc.items())


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.raw_s = 0.0
        self._start = 0.0
        self._work = 0.0
        self._previous = None

    def _sample(self, *_):
        begin = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.spent += perf_counter() - begin

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._work = self.raw_s - self.spent
        if not self.samples:
            self._sample()

    @property
    def scaled_s(self):
        """Seconds the block would have taken at reference speed."""
        return self._work * REFERENCE_S / statistics.fmean(self.samples)
