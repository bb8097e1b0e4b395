"""Host-speed reference: how slow the machine is right now, so that
timings taken minutes apart on a shared host can be compared.

The host this benchmark was sized on changes speed under the program,
for seconds to minutes at a time: a fixed integer loop moves by ~25 %
(a frequency state) and a fixed pointer chase over 8 MB by up to a
factor of two (neighbours contending for cache and memory), CPU time
and wall time alike.  Whole runs land in one state or another, so no
statistic over a run's own ops removes it, and the quartile spread of
ten runs reached the 25 % bound.

So the harness runs this probe between ops (never inside a timed op),
about every quarter second, and states every op's CPU time at the
*reference host*, the one on which the probe takes ``ALU_REFERENCE_MS``
and ``CHASE_REFERENCE_MS``::

    ms = (wall - busy) + busy / slowness        busy = min(cpu, wall)

Time the process did not spend on a CPU (the 44 ms stall of a loopback
exchange, say) is left as measured.  The probe is stdlib only and shares
no code with the program, so a change to the program cannot move it.

Why both halves, equally weighted: regressing per-run median op time on
the two probe times over 20 runs per workload gave exponents of
0.4–0.8 on the integer loop and 0.4–1.2 on the chase for every CPU-bound
op kind; neither alone explained as much.  With the mean of the two
relative times, same-code quartile spreads fell from 5–13 % to 3–6 %
in the host's quiet periods (README, "Host-speed compensation").
"""

from __future__ import annotations

import bisect
import time
from array import array

ALU_STEPS = 40_000
CHASE_STEPS = 20_000
#: 8 MB of machine integers, no collector-tracked objects: the probe
#: must not add to the gen-2 pauses it is there to put in proportion.
CHAIN_LENGTH = 1 << 20
#: What the two halves take on the sizing machine (2 vCPUs of a shared
#: Xeon @ 2.1 GHz, CPython 3.11) in its quiet state, between ops of a
#: running workload.  Only a scale: they fix which host "ms" refers to.
ALU_REFERENCE_MS = 2.2
CHASE_REFERENCE_MS = 3.2
#: An op's slowness is the mean of the samples this close to it.
WINDOW_S = 1.5
SAMPLE_EVERY_S = 0.25


class HostProbe:
    def __init__(self) -> None:
        # One cycle through every slot in an order no prefetcher follows:
        # a full-period congruential map (increment odd, multiplier
        # 1 mod 4), filled without a list of a million ints in between.
        mask = CHAIN_LENGTH - 1
        self._chain = array("l", ((1664525 * slot + 1013904223) & mask
                                  for slot in range(CHAIN_LENGTH)))
        self._at = 0
        self.times: list[float] = []
        self.slowness: list[float] = []
        for _ in range(3):      # the first samples time a cold interpreter
            self.sample()
        self.times.clear()
        self.slowness.clear()

    def sample(self) -> None:
        """Time both halves now and file the relative slowness."""
        started = time.perf_counter()
        total = 0
        for index in range(ALU_STEPS):
            total += index * index % 7
        between = time.perf_counter()
        chain, at = self._chain, self._at
        for _ in range(CHASE_STEPS):
            at = chain[at]
        ended = time.perf_counter()
        self._at = at
        self.times.append(started)
        self.slowness.append(0.5 * (
            (between - started) * 1e3 / ALU_REFERENCE_MS
            + (ended - between) * 1e3 / CHASE_REFERENCE_MS))

    def sample_if_due(self) -> None:
        if not self.times \
                or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def slowness_over(self, start: float, end: float) -> float:
        """Mean slowness of the samples within ``WINDOW_S`` of the
        interval.  ``sample_if_due`` before every timed interval
        guarantees there is one."""
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        return sum(self.slowness[low:high]) / (high - low)

    def at_reference(self, start: float, wall_s: float, cpu_s: float) -> float:
        """Seconds the interval would have taken on the reference host."""
        busy = min(cpu_s, wall_s)
        return wall_s - busy \
            + busy / self.slowness_over(start, start + wall_s)
