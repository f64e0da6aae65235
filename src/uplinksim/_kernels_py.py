"""Scheduling kernels.

These are the hot inner loops of the simulator: weighted excess filling,
earliest-deadline selection and the deficit round.  The excess filling
works on plain lists of integers, so its result is exact and reproducible;
earliest-deadline selection and the deficit round read the heads of the
connections' live queues and pop the packets they send.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache

BACKEND = "python"


@lru_cache(maxsize=32)
def _key_steps(weights: tuple) -> tuple:
    """(L, steps, scaled) for one weight set.

    Integer-valued weights are used as they are.  Any other weight is read
    as the exact decimal it prints as, and the whole set is scaled by the
    common denominator to integers ``W_i`` (``scaled``).  With
    ``L = lcm(W)`` and ``steps[i] = L / W_i``, the key of byte ``k`` of
    entry ``i`` is the integer ``k * steps[i]``, which orders bytes exactly
    as ``k / w_i`` does.
    """
    if all(float(w).is_integer() for w in weights):
        scaled = tuple(int(w) for w in weights)
    else:
        from fractions import Fraction

        exact = [Fraction(str(w)) for w in weights]
        den = math.lcm(*(f.denominator for f in exact))
        scaled = tuple(int(f * den) for f in exact)
    lcm = math.lcm(*scaled)
    return lcm, tuple(lcm // w for w in scaled), scaled


def waterfill(deficits: list, weights: list, remaining: int) -> list:
    """Distribute ``remaining`` (R) bytes over unmet demands by weight.

    Byte-granular weighted filling: every next byte goes to the entry whose
    served excess per weight is smallest (ties to the lowest index), capped
    at its deficit.  That outcome is the R smallest (key, index) pairs,
    where byte ``k`` of entry ``i`` has the key ``k / w_i``; on the integer
    keys of ``_key_steps`` it is computed exactly.  Every key below the
    level of the continuous solution is taken, which overshoots R by fewer
    than n bytes, and the largest (key, index) pairs are given back.
    Weights must be > 0.  Returns the per-index byte increments.
    """
    unmet = 0
    for d in deficits:
        if d > 0:
            unmet += d
    if remaining >= unmet:
        return [d if d > 0 else 0 for d in deficits]
    n = len(deficits)
    inc = [0] * n
    if remaining <= 0:
        return inc
    lcm, steps, scaled = _key_steps(tuple(weights))

    # Continuous level T: an unsaturated entry holds T / steps[i] bytes,
    # i.e. T * W_i / L.  Walk the entries in the order they saturate
    # (at T = d_i * steps[i]) until the filled total reaches R.
    active = [(deficits[i] * steps[i], i) for i in range(n) if deficits[i] > 0]
    active.sort()
    filled = 0          # bytes of the saturated entries
    wsum = 0            # sum of W_i over the unsaturated ones
    for _, i in active:
        wsum += scaled[i]
    target = remaining * lcm
    for sat, i in active:
        if filled * lcm + sat * wsum >= target:
            break
        filled += deficits[i]
        wsum -= scaled[i]
    # integer keys below T* = (R - filled) * L / wsum are those below ceil(T*)
    level = -((filled - remaining) * lcm // wsum)
    given = 0
    for _, i in active:
        d = deficits[i]
        k = -(-level // steps[i])
        if k > d:
            k = d
        inc[i] = k
        given += k

    # each unsaturated entry overshoots by less than one byte; give back the
    # largest (key, index) pairs, from a max-heap of each entry's last key
    surplus = given - remaining
    if surplus:
        heap = [(-(inc[i] - 1) * steps[i], -i) for _, i in active]
        heapq.heapify(heap)
        for _ in range(surplus):
            key, neg = heap[0]
            i = -neg
            inc[i] -= 1
            if inc[i]:
                heapq.heapreplace(heap, (key + steps[i], neg))
            else:
                heapq.heappop(heap)
    return inc


def edf_take(conns, budget: int) -> tuple:
    """Earliest-deadline-first over the connections' live queues.

    Repeatedly picks the head packet with the smallest (deadline, arrival,
    cid) and pops it; the phase ends at the first pick that does not fit
    the remaining budget whole.  Every queued packet must carry a deadline.
    Returns (entries, used) where ``entries`` lists (cid, packet) in
    transmission order.
    """
    # the cid is unique, so two heap items never compare their queues
    heap = [(q[0].deadline, q[0].arrival_time, c.cid, q)
            for c in conns if (q := c.queue)]
    heapq.heapify(heap)
    entries = []
    used = 0
    while heap:
        _, _, cid, q = heap[0]
        pkt = q[0]
        if pkt.size > budget:
            break
        q.popleft()
        budget -= pkt.size
        used += pkt.size
        entries.append((cid, pkt))
        if q:
            head = q[0]
            heapq.heapreplace(heap, (head.deadline, head.arrival_time, cid, q))
        else:
            heapq.heappop(heap)
    return entries, used


def dfpq_take(conns, quanta: list, deficits: list, cursor: int,
              budget: int) -> tuple:
    """Deficit rounds over the connections' live queues.

    Visits cycle from ``cursor`` over non-empty queues: each visit adds the
    quantum to the deficit counter, then pops head packets while they fit
    both counter and budget.  A queue left empty by its visit forfeits its
    counter.  The round stops when no pending head fits the leftover budget.

    Returns (entries, new_deficits, new_cursor, used) where ``entries``
    lists (cid, packet) in transmission order.
    """
    n = len(conns)
    dc = list(deficits)
    if n == 0:
        return [], dc, cursor, 0
    queues = [c.queue for c in conns]
    pos = cursor % n
    entries = []
    used = 0
    while True:
        # the round ends once no pending head fits the leftover budget
        for q in queues:
            if q and q[0].size <= budget:
                break
        else:
            break
        q = queues[pos]
        if q:
            credit = dc[pos] + quanta[pos]
            cid = conns[pos].cid
            while q:
                size = q[0].size
                if size > credit or size > budget:
                    break
                credit -= size
                budget -= size
                used += size
                entries.append((cid, q.popleft()))
            dc[pos] = credit if q else 0
        pos = (pos + 1) % n
    return entries, dc, pos, used
