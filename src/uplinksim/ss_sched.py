"""Subscriber-station scheduling of a pooled per-frame grant.

The proposed discipline (``schedule_frame_ss1``) serves the classes in
strict order of urgency: UGS drains first, rtPS follows under
earliest-deadline-first, and the rest of the grant runs a deficit round over
nrtPS then BE queues so neither can starve the other.  The comparison
discipline (``schedule_frame_ss2``) is plain strict priority with FIFO
inside each class and no deficit mechanism.

Packets are never fragmented: a packet is either sent whole or left queued.
A connection's queue is a row range of its ``PacketLog`` (see there); a
packet sent in a frame gets that frame's end as its departure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend
from .model import ServiceClass


@dataclass
class TransmissionList:
    """One frame's send order: the cid of each packet sent, in
    transmission order, and their bytes."""

    entries: list[int]
    total_bytes: int


def queued(logs) -> bool:
    """Whether any of ``logs`` has a packet queued."""
    for log in logs:
        if len(log.departure) < log.arrived:
            return True
    return False


class Station:
    """One subscriber station's queues, split by service class once.

    ``conns`` are the station's ``ConnSpec``s, ``logs`` their
    ``PacketLog``s, whose rows hold the queues, and ``quanta`` their
    deficit-round quanta (``Scenario.quanta``), aligned; the lists below
    hold those same logs.  Each class lists its connections in ascending
    cid order as a (cids, logs, bounds) triple, the arguments ``edf_take``
    reads: ``ugs`` with bounds of 0.0, which is FIFO, and ``rtps`` with
    each connection's ``max_latency_ms``.  ``priority`` holds ss2's four
    FIFO triples, UGS first.

    The station owns its deficit round over ``drr_cids`` and ``drr_logs``
    (nrtPS then BE): ``quantum`` and ``deficit`` hold each queue's quantum
    and counter, and ``cursor`` the next visit, which persists across
    frames so an interrupted round resumes where it stopped.
    """

    __slots__ = ("ugs", "rtps", "priority", "drr_cids", "drr_logs",
                 "quantum", "deficit", "cursor")

    def __init__(self, conns, logs, quanta):
        rows = sorted(zip(conns, logs, quanta), key=lambda r: r[0].cid)
        ugs, rtps, nrtps, be = ([r for r in rows if r[0].service_class is cls]
                                for cls in (ServiceClass.UGS, ServiceClass.RTPS,
                                            ServiceClass.NRTPS, ServiceClass.BE))
        self.priority = tuple(([s.cid for s, *_ in c], [log for _, log, _ in c],
                               [0.0] * len(c)) for c in (ugs, rtps, nrtps, be))
        self.ugs = self.priority[0]
        self.rtps = (*self.priority[1][:2], [s.qos.max_latency_ms for s, *_ in rtps])
        drr = nrtps + be
        self.drr_cids = [s.cid for s, *_ in drr]
        self.drr_logs = [log for _, log, _ in drr]
        self.quantum = [quantum for *_, quantum in drr]
        self.deficit = [0] * len(drr)
        self.cursor = 0


def serve_ugs(queues, budget: int, frame_end: float) -> tuple[list[int], int]:
    """Send one class of a station's head-of-line packets in
    earliest-deadline order over its (cids, logs, bounds) triple.

    The key is (deadline, arrival time, cid), where a packet's deadline is
    its arrival time plus its queue's bound: 0.0 on the ``ugs`` triple,
    which drains UGS in arrival order, and ``max_latency_ms`` on the
    ``rtps`` one.  The phase ends at the first selected packet that does not
    fit the remaining budget whole; on empty queues it sends nothing.  Each
    packet sent departs at ``frame_end``.  Returns (sent, used), the cid of
    each packet sent in transmission order and their bytes."""
    return _backend.kernels.edf_take(*queues, budget, frame_end)


# the rtPS phase is the same selection, named apart so each phase can be timed
serve_rtps_edf = serve_ugs


def dfpq_round(station: Station, budget: int,
               frame_end: float) -> tuple[list[int], int]:
    """Deficit rounds over ``station.drr_logs`` (its nrtPS queues, then
    its BE queues, each by ascending cid), resuming at ``station.cursor``.

    Each visit credits the queue's quantum to its deficit counter, then sends
    head packets while they fit both counter and budget.  A drained queue
    forfeits its counter; non-empty queues keep theirs for later rounds.
    The round stops once no pending head fits the leftover budget.  Each
    packet sent departs at ``frame_end``.  Updates ``station.deficit`` in
    place and ``station.cursor``; returns (sent, used).
    """
    sent, station.cursor, used = _backend.kernels.dfpq_take(
        station.drr_cids, station.drr_logs, station.quantum, station.deficit,
        station.cursor, budget, frame_end)
    return sent, used


def schedule_frame_ss1(station: Station, grant: int,
                       frame_end: float) -> TransmissionList:
    """Full per-frame schedule for one SS under the proposed discipline;
    each packet sent departs at ``frame_end``.  Every phase runs: one whose
    queues are all empty sends nothing and changes no state."""
    sent, used = serve_ugs(station.ugs, grant, frame_end)
    more, spent = serve_rtps_edf(station.rtps, grant - used, frame_end)
    sent += more
    used += spent
    more, spent = dfpq_round(station, grant - used, frame_end)
    return TransmissionList(sent + more, used + spent)


def schedule_frame_ss2(station: Station, grant: int,
                       frame_end: float) -> TransmissionList:
    """Comparison discipline: strict class priority, FIFO within a class.

    The first packet (in priority order) that does not fit the remaining
    budget blocks everything behind it, so a backlogged higher class starves
    all lower classes.  Each packet sent departs at ``frame_end``.
    """
    sent: list[int] = []
    used = 0
    for cids, logs, bounds in station.priority:
        more, spent = _backend.kernels.edf_take(cids, logs, bounds, grant - used,
                                                frame_end)
        sent += more
        used += spent
        if queued(logs):
            # head-of-line packet did not fit: strict priority blocks the rest
            break
    return TransmissionList(sent, used)
