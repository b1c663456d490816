"""The host's speed, measured all through a pass with a reference kernel.

Other tenants of the host slow the CPU itself, by up to 2x for seconds to
minutes at a time, and CPU time slows with it: raw times of the same work
spread by 40 % from run to run. So while a pass runs, a profiling timer
interrupts the process every SAMPLE_EVERY_S of its CPU time, jobs
included, and times a fixed kernel that does not use negsum. A job's time
is its CPU time without the kernel samples taken inside it, scaled by
REFERENCE_S over the kernel's mean time in the samples within WINDOW_S of
it. A scaled time is what the job would take on a host where the kernel
takes REFERENCE_S: the host's slow spells cancel, and a change to negsum
does not, because the kernel does not run its code.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.002  # the kernel's CPU time on this host type when quiet
SAMPLE_EVERY_S = 0.025  # CPU time between two kernel samples
WINDOW_S = 0.05  # CPU time around a job whose samples give its speed


def kernel():
    """Depth-first search over the 625 markings of four agents that each
    step through five local states: frozenset and tuple work like that of
    negsum's reachability, in about 2 ms."""
    start = frozenset((agent, 0) for agent in range(4))
    seen, todo = {start}, [start]
    while todo:
        marking = todo.pop()
        for agent, state in marking:
            if state < 4:
                succ = (marking - {(agent, state)}) | {(agent, state + 1)}
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
    return len(seen)


def sample():
    """One kernel run: (CPU time at its start, at its end). Garbage
    collection is off during it, so that the heap negsum left behind does
    not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        kernel()
        return t0, time.thread_time()
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Kernel samples every SAMPLE_EVERY_S of CPU time while it is
    entered, and what they say about a span of CPU time within that."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, _signum=None, _frame=None):
        self.samples.append(sample())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def own_cpu(self, t0, t1):
        """CPU time from t0 to t1 without the samples taken inside it."""
        inside = sum(end - start for start, end in self.samples if start >= t0 and end <= t1)
        return t1 - t0 - inside

    def factor(self, t0, t1):
        """REFERENCE_S over the mean kernel time of the samples within
        WINDOW_S of the span from t0 to t1, and at least the last one
        before it and the first one after it."""
        before = [s for s in self.samples if s[1] <= t0]
        after = [s for s in self.samples if s[0] >= t1]
        near = {s for s in self.samples if s[1] >= t0 - WINDOW_S and s[0] <= t1 + WINDOW_S}
        near.update(before[-1:] + after[:1])
        return REFERENCE_S * len(near) / sum(end - start for start, end in near)
