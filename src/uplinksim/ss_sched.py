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
from .model import ServiceClass


@dataclass
class TransmissionList:
    """One frame's send order: the cid of each packet sent, in
    transmission order, and their bytes."""

    entries: list[int]
    total_bytes: int


class Station:
    """One subscriber station's queues, split by service class once.

    ``conns`` are the station's ``ConnSpec``s, ``queues`` their live
    queues and ``quanta`` their deficit-round quanta (``Scenario.quanta``),
    aligned; the lists below hold those same deques, which the
    engine never rebinds, so they always show the live queues.  Each class
    lists its connections in ascending cid order as a (cids, queues,
    bounds) triple, the arguments ``edf_take`` reads: ``ugs`` with bounds
    of 0.0, which is FIFO, and ``rtps`` with each connection's
    ``max_latency_ms``.  ``priority`` holds ss2's four FIFO triples, UGS
    first.

    The station owns its deficit round over ``drr_cids`` and
    ``drr_queues`` (nrtPS then BE): ``quantum`` and ``deficit`` hold each
    queue's quantum and counter, and ``cursor`` the next visit, which
    persists across frames so an interrupted round resumes where it
    stopped.
    """

    __slots__ = ("ugs", "rtps", "priority", "drr_cids", "drr_queues",
                 "quantum", "deficit", "cursor")

    def __init__(self, conns, queues, quanta):
        rows = sorted(zip(conns, queues, quanta), key=lambda r: r[0].cid)
        ugs, rtps, nrtps, be = ([r for r in rows if r[0].service_class is cls]
                                for cls in (ServiceClass.UGS, ServiceClass.RTPS,
                                            ServiceClass.NRTPS, ServiceClass.BE))
        self.priority = tuple(([s.cid for s, *_ in c], [q for _, q, _ in c],
                               [0.0] * len(c)) for c in (ugs, rtps, nrtps, be))
        self.ugs = self.priority[0]
        self.rtps = (*self.priority[1][:2], [s.qos.max_latency_ms for s, *_ in rtps])
        drr = nrtps + be
        self.drr_cids = [s.cid for s, *_ in drr]
        self.drr_queues = [q for _, q, _ in drr]
        self.quantum = [quantum for *_, quantum in drr]
        self.deficit = [0] * len(drr)
        self.cursor = 0


def serve_ugs(ugs, budget: int) -> tuple[list[int], int]:
    """Drain UGS queues in arrival order (cid breaking ties) while whole
    packets fit ``budget`` bytes: deadline selection over a station's
    ``ugs`` triple, whose bounds are all 0.0.  Returns (sent, used), the
    cid of each packet sent in transmission order and their bytes."""
    return _backend.kernels.edf_take(*ugs, budget)


def serve_rtps_edf(rtps, budget: int) -> tuple[list[int], int]:
    """Send rtPS head-of-line packets in earliest-deadline order over a
    station's ``rtps`` triple.

    The key is (deadline, arrival time, cid), where a packet's deadline is
    its arrival time plus its connection's ``max_latency_ms``.  The phase
    ends at the first selected packet that does not fit the remaining
    budget whole.  Returns (sent, used).
    """
    return _backend.kernels.edf_take(*rtps, budget)


def dfpq_round(station: Station, budget: int) -> tuple[list[int], int]:
    """Deficit rounds over ``station.drr_queues`` (its nrtPS queues, then
    its BE queues, each by ascending cid), resuming at ``station.cursor``.

    Each visit credits the queue's quantum to its deficit counter, then sends
    head packets while they fit both counter and budget.  A drained queue
    forfeits its counter; non-empty queues keep theirs for later rounds.
    The round stops once no pending head fits the leftover budget.  Updates
    ``station.deficit`` in place and ``station.cursor``; returns
    (sent, used).
    """
    sent, station.cursor, used = _backend.kernels.dfpq_take(
        station.drr_cids, station.drr_queues, station.quantum, station.deficit,
        station.cursor, budget)
    return sent, used


def schedule_frame_ss1(station: Station, grant: int) -> TransmissionList:
    """Full per-frame schedule for one SS under the proposed discipline.

    A phase whose queues are all empty would send nothing and change no
    state, so it is skipped; UGS, which sends in almost every frame, is
    not checked."""
    sent, used = serve_ugs(station.ugs, grant)
    if any(station.rtps[1]):
        more, spent = serve_rtps_edf(station.rtps, grant - used)
        sent += more
        used += spent
    if any(station.drr_queues):
        more, spent = dfpq_round(station, grant - used)
        sent += more
        used += spent
    return TransmissionList(sent, used)


def schedule_frame_ss2(station: Station, grant: int) -> TransmissionList:
    """Comparison discipline: strict class priority, FIFO within a class.

    The first packet (in priority order) that does not fit the remaining
    budget blocks everything behind it, so a backlogged higher class starves
    all lower classes.  A class with nothing queued is skipped.
    """
    sent: list[int] = []
    used = 0
    for cids, queues, bounds in station.priority:
        if not any(queues):
            continue
        more, spent = _backend.kernels.edf_take(cids, queues, bounds, grant - used)
        sent += more
        used += spent
        if any(queues):
            # head-of-line packet did not fit: strict priority blocks the rest
            break
    return TransmissionList(sent, used)
