"""Subscriber-station scheduling of a pooled per-frame grant.

The proposed discipline (``schedule_frame_ss1``) serves the classes in
strict order of urgency: UGS drains first, rtPS follows under
earliest-deadline-first, and the rest of the grant runs a deficit round over
nrtPS then BE queues so neither can starve the other.  The comparison
discipline (``schedule_frame_ss2``) is plain strict priority with FIFO
inside each class and no deficit mechanism.

Packets are never fragmented: a packet is either sent whole or left queued.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import _backend
from .model import Connection, FrameConfig, Packet, ServiceClass, bytes_per_frame


@dataclass
class DfpqState:
    """Deficit-round state for one subscriber station: quantum and deficit
    counter of each visited connection (aligned with ``Station.drr``), plus
    the visit cursor that persists across frames so interrupted rounds
    resume where they stopped."""

    quantum: list[int]
    deficit: list[int]
    cursor: int = 0


@dataclass
class FrameBudget:
    """Byte budget of one SS for one frame; ``running`` is what is still
    spendable."""

    total: int
    running: int = -1

    def __post_init__(self):
        if self.running < 0:
            self.running = self.total


@dataclass
class TransmissionList:
    """Packets chosen for one frame, in transmission order."""

    entries: list[tuple[int, Packet]] = field(default_factory=list)
    total_bytes: int = 0


def quantum_for(conn: Connection, frame: FrameConfig) -> int:
    """Deficit-round quantum: one frame's worth of the sustained rate, or of
    the reserved rate for BE (which has no sustained rate)."""
    rate = conn.qos.max_sustained_kbps
    if rate is None:
        rate = conn.qos.min_reserved_kbps or 0.0
    return bytes_per_frame(rate, frame)


class Station:
    """One subscriber station's connections, split by service class once:
    ``ugs``, ``rtps``, ``nrtps`` and ``be`` each in ascending cid order,
    ``drr`` the deficit round's visit order (nrtPS then BE) and ``dfpq``
    its state."""

    __slots__ = ("ugs", "rtps", "nrtps", "be", "drr", "dfpq")

    def __init__(self, connections, frame: FrameConfig):
        by_class: dict[ServiceClass, list[Connection]] = {
            cls: [] for cls in ServiceClass}
        for conn in sorted(connections, key=lambda c: c.cid):
            by_class[conn.service_class].append(conn)
        self.ugs = by_class[ServiceClass.UGS]
        self.rtps = by_class[ServiceClass.RTPS]
        self.nrtps = by_class[ServiceClass.NRTPS]
        self.be = by_class[ServiceClass.BE]
        self.drr = self.nrtps + self.be
        self.dfpq = DfpqState(quantum=[quantum_for(c, frame) for c in self.drr],
                              deficit=[0] * len(self.drr))


def _drain_fifo(conns, budget: FrameBudget) -> list[tuple[int, Packet]]:
    # global arrival order across the given queues, cid breaking ties;
    # the phase stops at the first head that does not fit whole
    heap = [
        (c.queue[0].arrival_time, c.cid, c) for c in conns if c.queue
    ]
    heapq.heapify(heap)
    entries = []
    while heap:
        _, cid, conn = heapq.heappop(heap)
        pkt = conn.queue[0]
        if pkt.size > budget.running:
            break
        conn.queue.popleft()
        budget.running -= pkt.size
        entries.append((cid, pkt))
        if conn.queue:
            heapq.heappush(heap, (conn.queue[0].arrival_time, cid, conn))
    return entries


def serve_ugs(ugs_conns, budget: FrameBudget) -> list[tuple[int, Packet]]:
    """Drain UGS queues in arrival order while whole packets fit."""
    return _drain_fifo(ugs_conns, budget)


def _head_segment(conn: Connection, limit: int) -> tuple[list[Packet], bool]:
    # leading packets up to the first whose cumulative size exceeds the
    # budget; anything beyond can never be sent this frame
    packets = []
    total = 0
    for pkt in conn.queue:
        packets.append(pkt)
        total += pkt.size
        if total > limit:
            return packets, False
    return packets, True


def serve_rtps_edf(rtps_conns, budget: FrameBudget) -> list[tuple[int, Packet]]:
    """Send rtPS head-of-line packets in earliest-deadline order.

    Ties break on (arrival time, cid).  The phase ends at the first selected
    packet that does not fit the remaining budget whole.
    """
    conns = [c for c in rtps_conns if c.queue]
    if not conns or budget.running <= 0:
        return []
    segments = [_head_segment(c, budget.running)[0] for c in conns]
    deadlines = [[p.deadline if p.deadline is not None else 0.0 for p in seg]
                 for seg in segments]
    arrivals = [[p.arrival_time for p in seg] for seg in segments]
    sizes = [[p.size for p in seg] for seg in segments]
    cids = [c.cid for c in conns]
    order, used = _backend.kernels.edf_take(deadlines, arrivals, sizes, cids,
                                            budget.running)
    entries = []
    for q in order:
        conn = conns[q]
        entries.append((conn.cid, conn.queue.popleft()))
    budget.running -= used
    return entries


def dfpq_round(conns, state: DfpqState,
               budget: FrameBudget) -> list[tuple[int, Packet]]:
    """Deficit rounds over ``conns`` in the order given (a station visits
    its nrtPS queues, then its BE queues, each by ascending cid); ``state``
    is aligned with them.

    Each visit credits the queue's quantum to its deficit counter, then sends
    head packets while they fit both counter and budget.  A drained queue
    forfeits its counter; non-empty queues keep theirs for later rounds.
    The round stops once no pending head fits the leftover budget.
    """
    if not conns:
        return []
    segments = []
    fulls = []
    for conn in conns:
        seg, is_full = _head_segment(conn, budget.running)
        segments.append(seg)
        fulls.append(is_full)
    sizes = [[p.size for p in seg] for seg in segments]
    order, state.deficit, state.cursor, used = _backend.kernels.dfpq_take(
        sizes, fulls, state.quantum, state.deficit, state.cursor, budget.running
    )
    entries = []
    for q in order:
        conn = conns[q]
        entries.append((conn.cid, conn.queue.popleft()))
    budget.running -= used
    return entries


def schedule_frame_ss1(station: Station, grant: int) -> TransmissionList:
    """Full per-frame schedule for one SS under the proposed discipline."""
    budget = FrameBudget(total=grant)
    entries = serve_ugs(station.ugs, budget)
    entries += serve_rtps_edf(station.rtps, budget)
    entries += dfpq_round(station.drr, station.dfpq, budget)
    return TransmissionList(entries=entries, total_bytes=grant - budget.running)


def schedule_frame_ss2(station: Station, grant: int) -> TransmissionList:
    """Comparison discipline: strict class priority, FIFO within a class.

    The first packet (in priority order) that does not fit the remaining
    budget blocks everything behind it, so a backlogged higher class starves
    all lower classes.
    """
    budget = FrameBudget(total=grant)
    entries: list[tuple[int, Packet]] = []
    for conns in (station.ugs, station.rtps, station.nrtps, station.be):
        entries += _drain_fifo(conns, budget)
        if any(c.queue for c in conns):
            # head-of-line packet did not fit: strict priority blocks the rest
            break
    return TransmissionList(entries=entries, total_bytes=grant - budget.running)
