"""Host-speed reference that the benchmark's timings are rescaled by.

On a shared host the same interpreter-bound work runs up to about 1.5 times
slower for tens of seconds at a time while neighbours are busy, and CPU
time slows just as much, so neither wall nor CPU time of one run can be
compared with another.  The benchmark therefore times this fixed toy queue
model, which shares no code with the simulator but the same kinds of work
(seeded random arrivals, small objects, weighted bisection, sorting and
draining queues), between its measured repeats, and reports each repeat as
``measured * REFERENCE_S / reference``: seconds on a host that runs the
model in ``REFERENCE_S``.  A change to the simulator moves only the
numerator.
"""

import random
import time

#: Nominal duration of one ``reference_seconds`` pass; a fixed constant.
REFERENCE_S = 0.100


class _Item:
    __slots__ = ("size", "arrival", "deadline")

    def __init__(self, size, arrival, deadline):
        self.size = size
        self.arrival = arrival
        self.deadline = deadline


class _Source:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.credit = 0.0

    def emit(self, t):
        self.credit += self.rng.random() * 3.0
        out = []
        while self.credit >= 1.0:
            self.credit -= 1.0
            out.append(_Item(self.rng.randint(64, 1250),
                             t + self.rng.random(), t + 20.0))
        return out


def _fill(demands, weights, budget):
    lo, hi = 0.0, max(d / w for d, w in zip(demands, weights))
    for _ in range(30):
        mid = (lo + hi) * 0.5
        if sum(min(d, int(mid * w)) for d, w in zip(demands, weights)) >= budget:
            hi = mid
        else:
            lo = mid
    return [min(d, int(lo * w)) for d, w in zip(demands, weights)]


def _model(steps: int = 150, queues: int = 16) -> int:
    sources = [_Source(k) for k in range(queues)]
    pending: list[list[_Item]] = [[] for _ in range(queues)]
    weights = [float(1 + k % 4) for k in range(queues)]
    sent = 0
    for step in range(steps):
        t = step * 10.0
        for source, queue in zip(sources, pending):
            queue.extend(source.emit(t))
        demands = [sum(item.size for item in queue) for queue in pending]
        for queue, grant in zip(pending, _fill(demands, weights, 8000)):
            queue.sort(key=lambda item: (item.deadline, item.arrival))
            n = 0
            while n < len(queue) and queue[n].size <= grant:
                grant -= queue[n].size
                sent += queue[n].size
                n += 1
            del queue[:n]
    return sent


def reference_seconds() -> float:
    """Host seconds one pass of the reference model takes right now."""
    t0 = time.perf_counter()
    _model()
    return time.perf_counter() - t0
