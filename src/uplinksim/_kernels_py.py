"""Scheduling kernels.

These are the hot inner loops of the simulator: weighted excess filling,
earliest-deadline selection (which with bounds of 0.0 is FIFO) and the
deficit round.  Each works on plain aligned lists.  The excess filling
takes integers, so its result is exact and reproducible; it sees only the
contended rests that ``bs_alloc.phase2_excess`` picks out, and hands each
out whole.  Earliest-deadline selection and the deficit round take each
queue's cid and live ``deque``, read the head packets in place, pop the
packets they send and return the cid of each, in transmission order.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from operator import le

BACKEND = "python"
# uncapped water-filling splits kept per weight set, oldest evicted first
SPLITS_PER_WEIGHT_SET = 16


@lru_cache(maxsize=32)
def _key_steps(weights: tuple) -> tuple:
    """(L, steps, scaled, splits) for one weight set.

    Integer-valued weights are used as they are.  Any other weight is read
    as the exact decimal it prints as, and the whole set is scaled by the
    common denominator to integers ``W_i`` (``scaled``).  With
    ``L = lcm(W)`` and ``steps[i] = L / W_i``, the key of byte ``k`` of
    entry ``i`` is the integer ``k * steps[i]``, which orders bytes exactly
    as ``k / w_i`` does.  ``splits`` is ``waterfill``'s table of splits.
    """
    if all(float(w).is_integer() for w in weights):
        scaled = tuple(int(w) for w in weights)
    else:
        from fractions import Fraction

        exact = [Fraction(str(w)) for w in weights]
        den = math.lcm(*(f.denominator for f in exact))
        scaled = tuple(int(f * den) for f in exact)
    lcm = math.lcm(*scaled)
    return lcm, tuple(lcm // w for w in scaled), scaled, {}


def waterfill(deficits: list, weights: list, remaining: int) -> list:
    """Split a contended rest of ``remaining`` (R) bytes by weight.

    The domain is ``0 < R <`` the sum of the positive deficits, weights > 0.
    Outside it the split divides by zero or hands out negative bytes; inside
    it the increments sum to exactly R.

    Byte-granular weighted filling: every next byte goes to the entry whose
    served excess per weight is smallest (ties to the lowest index), capped
    at its deficit.  That outcome is the R smallest (key, index) pairs,
    where byte ``k`` of entry ``i`` has the key ``k / w_i``; on the integer
    keys of ``_key_steps`` it is computed exactly.  Every key below the
    level of the continuous solution is taken, which overshoots R by fewer
    than n bytes, and the largest (key, index) pairs are given back.
    Returns the per-index byte increments.

    In overload most contended calls cap no entry; the split then depends
    only on the weights, R and which deficits are > 0.  Each weight set
    keeps ``SPLITS_PER_WEIGHT_SET`` such uncapped splits, keyed by (R,
    active set) and evicted first in, first out, and returns one only where
    every share fits its deficit.  That is exact: the uncapped (key, index)
    pairs are a superset of the capped ones, so when the R smallest all fit
    they are the R smallest capped pairs too; and a capped result in which
    no entry reached its deficit, the only kind stored, is the uncapped one.
    """
    n = len(deficits)
    inc = [0] * n
    lcm, steps, scaled, splits = _key_steps(tuple(weights))
    slot = (remaining, bytes(map((0).__lt__, deficits)))
    split = splits.get(slot)
    if split is not None and all(map(le, split, deficits)):
        return list(split)

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
    if all(inc[i] < deficits[i] for _, i in active):
        if len(splits) >= SPLITS_PER_WEIGHT_SET:
            del splits[next(iter(splits))]
        splits[slot] = tuple(inc)
    return inc


def edf_take(cids: list, queues: list, bounds: list, budget: int) -> tuple:
    """Earliest-deadline-first over live queues.

    ``cids``, ``queues`` and ``bounds`` are aligned: a packet of
    ``queues[i]`` has the deadline of its arrival time plus ``bounds[i]``,
    so bounds of 0.0 give global arrival order, FIFO.  Repeatedly picks
    the head packet with the smallest (deadline, arrival, cid) and pops it;
    the phase ends at the first pick that does not fit the remaining budget
    whole.  Returns (sent, used) where ``sent`` lists the cid of each
    packet popped, in transmission order.
    """
    if len(queues) == 1:
        # along one queue arrivals never decrease and the bound is shared,
        # so the head always holds the earliest deadline: drain it in order
        q = queues[0]
        n = len(q)
        used = 0
        while q:
            size = q[0].size
            if size > budget:
                break
            q.popleft()
            budget -= size
            used += size
        return [cids[0]] * (n - len(q)), used
    heap = []
    for cid, q, bound in zip(cids, queues, bounds):
        if q:
            arrival = q[0].arrival_time
            # the cid is unique, so two heap items never compare their queues
            heap.append((arrival + bound, arrival, cid, bound, q))
    heapq.heapify(heap)
    sent = []
    used = 0
    while heap:
        _, _, cid, bound, q = heap[0]
        size = q[0].size
        if size > budget:
            break
        q.popleft()
        budget -= size
        used += size
        sent.append(cid)
        if q:
            arrival = q[0].arrival_time
            heapq.heapreplace(heap, (arrival + bound, arrival, cid, bound, q))
        else:
            heapq.heappop(heap)
    return sent, used


def dfpq_take(cids: list, queues: list, quanta: list, deficits: list, cursor: int,
              budget: int) -> tuple:
    """Deficit rounds over live queues.

    ``cids``, ``queues``, ``quanta`` and ``deficits`` are aligned, one entry
    per queue in visit order.  Visits cycle from ``cursor`` over
    non-empty queues: each visit adds the quantum to the deficit counter,
    then pops head packets while they fit both counter and budget.  A queue
    left empty by its visit forfeits its counter.  The round stops when no
    pending head fits the leftover budget.  ``deficits`` is updated in
    place.

    Returns (sent, new_cursor, used) where ``sent`` lists the cid of each
    packet popped, in transmission order.
    """
    n = len(queues)
    if n == 0:
        return [], cursor, 0
    pos = cursor % n
    sent = []
    used = 0
    while True:
        # the round ends once no pending head fits the leftover budget; a
        # visit that sends nothing changes neither the heads nor the budget,
        # so the scan runs again only after a visit that sends
        for q in queues:
            if q and q[0].size <= budget:
                break
        else:
            return sent, pos, used
        while True:
            q = queues[pos]
            if q:
                credit = deficits[pos] + quanta[pos]
                size = q[0].size
                if size <= credit and size <= budget:
                    break
                deficits[pos] = credit
            pos += 1
            if pos == n:
                pos = 0
        # this visit sends its head, then every next one that fits
        cid = cids[pos]
        while True:
            credit -= size
            budget -= size
            used += size
            q.popleft()
            sent.append(cid)
            if not q:
                credit = 0
                break
            size = q[0].size
            if size > credit or size > budget:
                break
        deficits[pos] = credit
        pos += 1
        if pos == n:
            pos = 0
