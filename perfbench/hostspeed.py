"""Host speed, measured by a fixed piece of pure-Python work.

The machines this benchmark runs on are shared: another tenant's load
can make the same code run up to twice as slow for minutes at a time,
longer than a run lasts, so neither medians nor best-of-rounds within a
run remove it. The probe times a fixed workload that does not touch
netcheck (a breadth-first search, dict, set and string operations, small
allocations) between the stages of every round, with the cyclic
collector off so that the size of netcheck's heap cannot change its
time. Dividing a stage's time by that of the probe run just before it,
and multiplying by REFERENCE_S, gives the stage's time on a host where
the probe takes REFERENCE_S: the host's speed cancels, netcheck's cost
does not.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque

# About the probe's time on a quiet two-vCPU KVM guest (Intel Xeon,
# Sapphire Rapids), so that adjusted times read close to raw seconds there.
REFERENCE_S = 0.0075


class HostProbe:
    def __init__(self):
        rng = random.Random("host-probe")
        self.adjacency = {v: [rng.randrange(3000) for _ in range(4)] for v in range(3000)}
        self.words = [f"w{i}" for i in range(2000)]

    def time(self) -> float:
        """Seconds the fixed workload takes now."""
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def _work(self) -> None:
        for _ in range(3):
            seen, queue = {0}, deque([0])
            while queue:
                for w in self.adjacency[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            lengths = {w: len(w) for w in self.words}
            "".join(sorted(lengths))
            [(i, str(i)) for i in range(5000)]
