"""Machine-speed gauge: a fixed pure-Python kernel timed around and during operations.

On the shared 2-core host the benchmark was built on, the speed of the same
code drifts by up to 1.8x over minutes and flips between fast and slow
phases lasting a few seconds (a fixed loop timed alone shows it). Every
reported time is therefore scaled to a reference speed: ``t * REFERENCE_S /
g``, with ``g`` the kernel's time while the operation ran and
``REFERENCE_S`` the kernel's time on that host in a fast phase.

``g`` is the median of the kernel's times just before and just after the
operation and of the times an interval timer (``SIGALRM`` every
``INTERVAL_S``, handled in the main thread, collector paused) takes while
it runs, so a long operation that spans a change of phase is scaled by
the speed it ran at; the handler's own time is subtracted. The kernel is
plain integer arithmetic: it allocates nothing, so its time does not
depend on the program's heap, caches or collector (a JSON-parsing kernel
ran 1.5x slower inside operations than between them).

Measured on that host, the coefficient of variation of four repeated calls
of each long ``cli_deep`` operation in one process was 0.03 to 0.07 scaled
this way (sampled every 50 ms), 0.05 to 0.12 scaled by the samples around the call alone and 0.08
to 0.15 unscaled. On a steady machine the factor is a constant, so a faster
program still reads faster.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.2e-3
INTERVAL_S = 0.025

_inside: list[float] = []
_own = 0.0


def _kernel() -> int:
    s = 0
    for i in range(4000):
        s += i * i
    return s


def sample() -> float:
    """Fastest of three kernel timings, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def _on_alarm(signum, frame) -> None:
    global _own
    t0 = perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    t1 = perf_counter()
    _kernel()
    _inside.append(perf_counter() - t1)
    if enabled:
        gc.enable()
    _own += perf_counter() - t0


def start() -> None:
    """Sample the kernel every INTERVAL_S from now on."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed(fn, g_before: float):
    """Call ``fn``; return its result, its scaled seconds and the kernel's time after it.

    ``g_before`` is the kernel's time sampled just before (the previous
    call's ``g_after``).
    """
    global _own
    _inside.clear()
    _own = 0.0
    t0 = perf_counter()
    ret = fn()
    dt = perf_counter() - t0 - _own
    inside = list(_inside)
    g_after = sample()
    g = statistics.median([g_before, *inside, g_after])
    return ret, dt * REFERENCE_S / g, g_after
