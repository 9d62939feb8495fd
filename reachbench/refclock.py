"""Call timings scaled by the machine's speed at the moment of the call.

The machine this benchmark was tuned on, a shared 2-vCPU cloud VM, runs
the same code up to 1.7 times slower for stretches of seconds to minutes,
as other tenants load the host, and the share of slow time differs from run
to run. Wall times of the program's calls move with it, by as much as 40%
between runs of the same code, far past any useful bound.

So the benchmark samples the machine's speed with a fixed reference
computation, owned by the benchmark and never by the program: a pure-Python
loop, small numpy element-wise ops and two small GEMMs, the mix the
program's own calls are made of. Every timed call runs it just before and
just after itself, and an interval timer runs it every ``INTERVAL`` seconds
while the call is under way; the time those in-call runs take is taken out
of the call's wall time. A call's scaled time is that wall time times
``REF_S`` over the median of its reference runs, from the one just before
it to the one just after: the time the call would take while the
reference took ``REF_S``. The program cannot change the reference, so a faster program
still shows as a shorter scaled time; the machine's state cancels out as
far as it slows the program and the reference alike.

Runs inside long calls matter: the runs just after a paper-size train step
(1.5 s) are slowed by the caches it left behind, and scaling that step by
them alone made it noisier than its wall time.
"""

from __future__ import annotations

import signal
import time
from statistics import median
from typing import NamedTuple

import numpy as np

REF_S = 0.5e-3    # the scale: about the reference's median time on the tuning VM
INTERVAL = 0.025  # seconds between reference runs inside a timed call

_inside = []      # (reference seconds, handler seconds) of the runs inside the call under way

_rng = np.random.default_rng(0)
_SMALL_A = _rng.random((16, 32))
_SMALL_B = _rng.random((16, 32))
_GEMM = _rng.random((128, 128))


def reference_seconds():
    """Wall time of one run of the fixed reference computation."""
    start = time.perf_counter()
    x, d = 0.0, {}
    for i in range(600):
        x += i * 0.5
        d[i & 63] = x
    a = _SMALL_A
    for _ in range(40):
        a = np.tanh(a * _SMALL_B + 0.1)
    for _ in range(2):
        _GEMM @ _GEMM
    return time.perf_counter() - start


class Timing(NamedTuple):
    """Timed calls: their wall seconds and their seconds scaled to the reference."""

    wall: float
    seconds: float

    def __add__(self, other):
        return Timing(self.wall + other.wall, self.seconds + other.seconds)


def _sample(signum, frame):
    start = time.perf_counter()
    ref = reference_seconds()
    _inside.append((ref, time.perf_counter() - start))


def timed(fn, *args):
    """Call fn(*args), running the reference before, during and after it;
    returns (Timing, result)."""
    before = reference_seconds()
    # left installed: a signal still pending when the timer stops must not
    # meet the default action, which ends the process
    signal.signal(signal.SIGALRM, _sample)
    _inside.clear()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    start = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    inside = list(_inside)
    after = reference_seconds()
    wall = end - start - sum(handler for _, handler in inside)
    ref = median([before, after] + [r for r, _ in inside])
    return Timing(wall, wall * REF_S / ref), out
