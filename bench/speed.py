"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over tens of seconds, for reasons outside the program (other
tenants on the same host).  Raw wall times of the same code then spread too
widely to compare two commits.  The probe times a fixed pure-Python loop
(`reference`, which is benchmark code and so is the same on every commit)
at both ends of a measured stretch and every ``PERIOD_S`` seconds inside it,
from a SIGALRM handler that pauses the work.  Each stretch of work between
two probes is scaled by ``NOMINAL_S`` over the mean of the two probes'
reference times, so a scaled time reads how long the work would have taken
on a machine where the reference loop takes ``NOMINAL_S`` (a 2-vCPU Intel
Xeon VM, measured when it ran at its usual speed).  Time spent in the
handler is excluded from the work.  A change to the program moves the
scaled time by the same share as the raw time; drift of the machine moves
the reference loop too and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

# Reference-loop time on the machine the scale is anchored to.
NOMINAL_S = 0.012
PERIOD_S = 0.25
_ROUNDS = 12000


def reference() -> float:
    """Time one run of a fixed loop of dict, set, tuple, list and integer
    work, the operations symcol's searches are made of.  On the machine the
    scale is anchored to, it tracked the speed of the sweeps better than a
    loop of integer arithmetic alone did."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    stack: list[tuple[int, int]] = []
    acc = 0
    for i in range(_ROUNDS):
        k = (i * 2654435761) & 255
        table[k] = table.get(k, 0) + 1
        if k in seen:
            acc ^= k << (i & 7)
        else:
            seen.add(k)
        stack.append((k, acc))
        if len(stack) > 16:
            acc += sum(a for a, _ in stack) & 1023
            stack.clear()
        acc += len(seen & {k, k + 1, k + 2})
    if acc < 0:  # keeps the loop's result alive
        raise AssertionError
    return time.perf_counter() - start


def probe(samples: int = 3) -> float:
    """The median of a few reference times, for a probe outside timed work."""
    return statistics.median(reference() for _ in range(samples))


class Scaler:
    """Samples the reference loop while a block of work runs.

    ``with Scaler() as s: work()`` then ``s.raw_s`` is the work's wall time
    without the probes and ``s.scaled_s`` the same work at nominal speed.
    """

    def __init__(self) -> None:
        # (entered, left, reference time) per probe, in order.
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_ignored) -> None:
        entered = time.perf_counter()
        ref = reference()
        self.samples.append((entered, time.perf_counter(), ref))

    def __enter__(self) -> "Scaler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def raw_s(self) -> float:
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    @property
    def scaled_s(self) -> float:
        return sum((b[0] - a[1]) * 2 * NOMINAL_S / (a[2] + b[2])
                   for a, b in zip(self.samples, self.samples[1:]))

