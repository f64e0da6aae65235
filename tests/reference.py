"""Independent reference implementations used only as test oracles.

These deliberately share no code with the package: the allocator oracle
awards one byte at a time, the deficit-round oracle interprets the rules
directly over plain queue copies, the earliest-deadline oracle sorts every
queued packet at once, the lateness oracle enumerates every permutation,
the metric oracles make one pass over the packet history per statistic
and service class, and the size-draw oracle calls ``random.randrange``.
The one exception is the samples oracle: it is the metrics accumulator
as a loop over every packet, before it read column slices, and it builds
its samples with the package's statistics types and helpers.
``queue_log``, ``queued_packets``, ``backlog`` and ``sent_packets`` are no
oracles but what several tests share: a queue to schedule, and readings of
a queue, of a run's logs and of a scheduler's send order.
"""

from array import array
from fractions import Fraction
from itertools import permutations

from uplinksim.metrics import ClassStats, MetricsSample, jain_index, utilization
from uplinksim.model import Packet, PacketLog


def brute_force_alloc(requested, bwmin, weights, capacity):
    """Byte-granular award simulator.

    Guaranteed minimums first (capped at the request), then every next byte
    goes to the unmet connection most under-served relative to its weight;
    ties break toward the lowest index.  Weights are read as the exact
    decimals they print as, and ``excess / weight`` is compared by
    cross-multiplication, so no comparison rounds.
    """
    n = len(requested)
    if sum(bwmin) > capacity:
        raise ValueError("reservations exceed capacity")
    exact = [Fraction(str(w)) for w in weights]
    alloc = [min(requested[i], bwmin[i]) for i in range(n)]
    excess = [0] * n
    remaining = capacity - sum(alloc)
    while remaining > 0:
        best = -1
        for i in range(n):
            if alloc[i] >= requested[i]:
                continue
            # excess[i] / w_i < excess[best] / w_best
            if best < 0 or excess[i] * exact[best] < excess[best] * exact[i]:
                best = i
        if best < 0:
            break
        alloc[best] += 1
        excess[best] += 1
        remaining -= 1
    return alloc


def reference_dfpq(queues, quanta, deficits, cursor, budget):
    """Literal deficit-round interpreter over copies of the real queues.

    Returns (sent, deficits, cursor, used); ``sent`` holds one queue index
    per packet in service order.
    """
    queues = [list(q) for q in queues]
    dc = list(deficits)
    n = len(queues)
    if n == 0:
        return [], dc, cursor, 0
    pos = cursor % n
    sent = []
    used = 0
    while any(q and q[0] <= budget for q in queues):
        q = queues[pos]
        if q:
            dc[pos] += quanta[pos]
            while q and q[0] <= dc[pos] and q[0] <= budget:
                size = q.pop(0)
                dc[pos] -= size
                budget -= size
                used += size
                sent.append(pos)
            if not q:
                dc[pos] = 0
        pos = (pos + 1) % n
    return sent, dc, pos, used


def reference_edf(deadlines, arrivals, sizes, cids, budget):
    """Earliest-deadline service over FIFO queues whose (deadline, arrival)
    pairs rise along each queue: one global sort by (deadline, arrival, cid,
    position), cut at the first packet that does not fit.

    Returns (sent, used); ``sent`` holds one queue index per packet.
    """
    packets = sorted(
        (d, a, cids[q], k, q, sizes[q][k])
        for q in range(len(sizes))
        for k, (d, a) in enumerate(zip(deadlines[q], arrivals[q]))
    )
    sent = []
    used = 0
    for *_, q, size in packets:
        if size > budget:
            break
        budget -= size
        used += size
        sent.append(q)
    return sent, used


def min_max_lateness(packets):
    """Smallest achievable maximum lateness over all service orders.

    ``packets`` is a sequence of (service_time, deadline); service is
    back-to-back starting at time zero.
    """
    best = None
    for perm in permutations(packets):
        t = 0
        worst = None
        for size, deadline in perm:
            t += size
            lateness = t - deadline
            if worst is None or lateness > worst:
                worst = lateness
        if best is None or worst < best:
            best = worst
    return best


def max_lateness(order):
    """Maximum lateness of one concrete (service_time, deadline) order."""
    t = 0
    worst = None
    for size, deadline in order:
        t += size
        lateness = t - deadline
        if worst is None or lateness > worst:
            worst = lateness
    return worst


def delay_stats(result, window, cls):
    """(mean delay, delay-violation rate) over the packets of class ``cls``
    delivered in window.

    The violation rate is the fraction of delivered packets whose delay
    exceeds their connection's maximum latency; connections without a
    latency bound never violate.  Absent (None, None) when nothing was
    delivered in the window.
    """
    start, end = window
    total = 0.0
    late = 0
    count = 0
    for spec in result.conns:
        if spec.service_class is not cls:
            continue
        bound = spec.qos.max_latency_ms
        for pkt in result.history[spec.cid]:
            dep = pkt.departure_time
            if dep is None or not (start <= dep < end):
                continue
            delay = dep - pkt.arrival_time
            total += delay
            count += 1
            if bound is not None and delay > bound:
                late += 1
    if count == 0:
        return None, None
    return total / count, late / count


def throughput(result, window):
    """Delivered kbit/s per configured service class, in ascending class
    order.

    Every configured class appears in the result, including those that
    delivered nothing (rate 0).  bytes * 8 / window-ms is exactly kbit/s.
    """
    start, end = window
    span = end - start
    if span <= 0:
        raise ValueError("window length must be > 0")
    totals = {cls: 0 for cls in sorted({s.service_class for s in result.conns})}
    for spec in result.conns:
        for pkt in result.history[spec.cid]:
            dep = pkt.departure_time
            if dep is not None and start <= dep < end:
                totals[spec.service_class] += pkt.size
    return {cls: bytes_ * 8.0 / span for cls, bytes_ in totals.items()}


def queue_log(sizes, arrivals, exited=0, pending=0):
    """A ``PacketLog`` whose queue holds packets of ``sizes`` arriving at
    ``arrivals``, head first: the queue a scheduler-level test hands out.
    ``exited`` one-byte rows ahead of the queue have already departed, at
    0.0, and ``pending`` one-byte rows after it are still to arrive, so a
    reader that strays outside the queue's rows takes a packet that fits
    any budget."""
    arrivals = list(map(float, arrivals))
    first, last = (arrivals[0], arrivals[-1]) if arrivals else (0.0, 0.0)
    log = PacketLog(array("q", [1] * exited + list(sizes) + [1] * pending),
                    array("d", [first] * exited + arrivals + [last] * pending))
    log.departure.extend([0.0] * exited)
    log.arrived = exited + len(arrivals)
    return log


def queued_packets(log):
    """``log``'s queue, its rows from ``len(departure)`` up to ``arrived``,
    as new ``Packet`` objects, head first."""
    head, tail = len(log.departure), log.arrived
    return list(map(Packet, log.size[head:tail], log.arrival[head:tail]))


def backlog(result, cid):
    """Bytes ``cid`` still has queued at run end: its log rows that have
    neither departed nor been dropped."""
    log = result.logs[cid]
    return sum(log.size[len(log.departure):])


def sent_packets(sent, before):
    """The (cid, packet) pairs a scheduler's send order ``sent`` stands
    for.  ``before`` maps each cid to its ``queued_packets`` taken before
    the call.  Every send takes its queue's head, so the k-th time a cid
    is sent it sends the k-th packet of that copy."""
    heads = dict.fromkeys(before, 0)
    pairs = []
    for cid in sent:
        pairs.append((cid, before[cid][heads[cid]]))
        heads[cid] += 1
    return pairs


def reference_draw_size(rng, lo, hi):
    """One packet size uniform over ``lo``..``hi``, drawn as the traffic
    sources first drew it."""
    return lo if lo == hi else rng.randrange(lo, hi + 1)


def reference_samples(result, start, window_ms, n, end):
    """``metrics._samples`` as a loop over every packet: ``n`` windows of
    ``window_ms`` from ``start``, the last of which ends exactly at
    ``end``.  Each packet delivered in [start, end) is added to its class's
    counters in log order, connections in ``result.conns`` order."""
    def rows():  # per window: delivered, delay sum, late, bytes
        return [0] * n, [0.0] * n, [0] * n, [0] * n

    by_class = {cls: rows() for cls in sorted({s.service_class for s in result.conns})}
    last = n - 1
    for spec in result.conns:
        count, delay_sum, late, nbytes = by_class[spec.service_class]
        bound = spec.qos.max_latency_ms
        log = result.logs[spec.cid]
        for dep, arrival, size in zip(log.departure, log.arrival, log.size):
            if not start <= dep < end:
                continue
            w = int((dep - start) // window_ms)
            if w > last:  # float rounding just below ``end``
                w = last
            delay = dep - arrival
            count[w] += 1
            delay_sum[w] += delay
            nbytes[w] += size
            if bound is not None and delay > bound:
                late[w] += 1

    def stats(acc, w):
        count, delay_sum, late, nbytes = (row[w] for row in acc)
        rate = nbytes * 8.0 / window_ms
        if count:
            return ClassStats(delay_sum / count, late / count, rate)
        return ClassStats(None, None, rate)

    samples = []
    for w in range(n):
        ws = start + w * window_ms
        window = (ws, end if w == last else ws + window_ms)
        per_class = {cls: stats(acc, w) for cls, acc in by_class.items()}
        samples.append(
            MetricsSample(
                window_start_ms=window[0],
                window_end_ms=window[1],
                per_class=per_class,
                utilization=utilization(result, window),
                jfi=jain_index([s.throughput_kbps for s in per_class.values()]),
            )
        )
    return samples
