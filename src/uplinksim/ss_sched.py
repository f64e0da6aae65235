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

from dataclasses import dataclass

from . import _backend
from .model import Connection, FrameConfig, Packet, ServiceClass, bytes_per_frame

# (cid, packet) pairs in transmission order
Entries = list[tuple[int, Packet]]


@dataclass
class TransmissionList:
    """Packets chosen for one frame, in transmission order."""

    entries: Entries
    total_bytes: int


def quantum_for(conn: Connection, frame: FrameConfig) -> int:
    """Deficit-round quantum: one frame's worth of the sustained rate, or of
    the reserved rate for BE (which has no sustained rate)."""
    rate = conn.qos.max_sustained_kbps
    if rate is None:
        rate = conn.qos.min_reserved_kbps or 0.0
    return bytes_per_frame(rate, frame)


class Station:
    """One subscriber station's connections, split by service class once:
    ``ugs``, ``rtps``, ``nrtps`` and ``be`` each in ascending cid order, and
    ``drr`` the deficit round's visit order (nrtPS then BE).

    Each class's queues are listed once too, in the order of its
    connections: ``rtps_queues`` and ``drr_queues``, and ``priority``, which
    pairs each class's connections with their queues, UGS first.  The lists
    hold the connections' own deques, which the engine never rebinds, so
    they always show the live queues.

    The station owns its deficit round: ``quantum`` and ``deficit`` hold
    each ``drr`` connection's quantum and counter, and ``cursor`` the next
    visit, which persists across frames so an interrupted round resumes
    where it stopped.
    """

    __slots__ = ("ugs", "rtps", "nrtps", "be", "drr", "rtps_queues",
                 "drr_queues", "priority", "quantum", "deficit", "cursor")

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
        self.priority = tuple((conns, [c.queue for c in conns]) for conns in
                              (self.ugs, self.rtps, self.nrtps, self.be))
        self.rtps_queues = self.priority[1][1]
        self.drr_queues = [c.queue for c in self.drr]
        self.quantum = [quantum_for(c, frame) for c in self.drr]
        self.deficit = [0] * len(self.drr)
        self.cursor = 0


def serve_ugs(ugs_conns, budget: int) -> tuple[Entries, int]:
    """Drain UGS queues in arrival order (cid breaking ties) while whole
    packets fit ``budget`` bytes: deadline selection with one common bound.
    Returns (entries, used)."""
    return _backend.kernels.edf_take(ugs_conns, budget, True)


def serve_rtps_edf(rtps_conns, budget: int) -> tuple[Entries, int]:
    """Send rtPS head-of-line packets in earliest-deadline order.

    The key is (deadline, arrival time, cid), where a packet's deadline is
    its arrival time plus its connection's ``max_latency_ms``.  The phase
    ends at the first selected packet that does not fit the remaining
    budget whole.  Returns (entries, used).
    """
    return _backend.kernels.edf_take(rtps_conns, budget)


def dfpq_round(station: Station, budget: int) -> tuple[Entries, int]:
    """Deficit rounds over ``station.drr`` (its nrtPS queues, then its BE
    queues, each by ascending cid), resuming at ``station.cursor``.

    Each visit credits the queue's quantum to its deficit counter, then sends
    head packets while they fit both counter and budget.  A drained queue
    forfeits its counter; non-empty queues keep theirs for later rounds.
    The round stops once no pending head fits the leftover budget.  Updates
    ``station.deficit`` in place and ``station.cursor``; returns
    (entries, used).
    """
    entries, station.cursor, used = _backend.kernels.dfpq_take(
        station.drr, station.drr_queues, station.quantum, station.deficit,
        station.cursor, budget)
    return entries, used


def schedule_frame_ss1(station: Station, grant: int) -> TransmissionList:
    """Full per-frame schedule for one SS under the proposed discipline.

    A phase whose queues are all empty would send nothing and change no
    state, so it is skipped; UGS, which sends in almost every frame, is
    not checked."""
    entries, used = serve_ugs(station.ugs, grant)
    if any(station.rtps_queues):
        more, spent = serve_rtps_edf(station.rtps, grant - used)
        entries += more
        used += spent
    if any(station.drr_queues):
        more, spent = dfpq_round(station, grant - used)
        entries += more
        used += spent
    return TransmissionList(entries, used)


def schedule_frame_ss2(station: Station, grant: int) -> TransmissionList:
    """Comparison discipline: strict class priority, FIFO within a class.

    The first packet (in priority order) that does not fit the remaining
    budget blocks everything behind it, so a backlogged higher class starves
    all lower classes.  A class with nothing queued is skipped.
    """
    entries: Entries = []
    used = 0
    for conns, queues in station.priority:
        if not any(queues):
            continue
        more, spent = _backend.kernels.edf_take(conns, grant - used, True)
        entries += more
        used += spent
        if any(queues):
            # head-of-line packet did not fit: strict priority blocks the rest
            break
    return TransmissionList(entries, used)
