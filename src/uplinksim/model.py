"""Domain model: service classes, QoS contracts, packets and their logs,
frames.

All scheduling arithmetic runs on integer bytes per frame; kbit/s rates from
the configuration are converted exactly once, by ``bytes_per_frame`` as the
``Scenario`` is checked, which keeps conservation checks exact.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import IntEnum


class ServiceClass(IntEnum):
    """Uplink service classes; larger value = higher scheduling priority."""

    BE = 1
    NRTPS = 2
    RTPS = 3
    UGS = 4

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class QosParams:
    """Per-connection QoS contract.

    Which fields must be present depends on the owning service class: the
    ones its ``DEFAULT_QOS`` contract sets, and no others.  ``weight``
    drives the excess-bandwidth distribution at the base station.
    """

    max_sustained_kbps: float | None = None
    min_reserved_kbps: float | None = None
    max_latency_ms: float | None = None
    weight: float = 1.0


#: The QoS contract's optional fields, in message and file order.
QOS_FIELDS = ("max_sustained_kbps", "min_reserved_kbps", "max_latency_ms")

#: Each class's default contract, used where a connection omits its whole
#: QoS block; the optional fields it sets are the ones the class requires.
DEFAULT_QOS: dict[ServiceClass, QosParams] = {
    ServiceClass.UGS: QosParams(max_sustained_kbps=256.0, weight=1.0),
    ServiceClass.RTPS: QosParams(
        max_sustained_kbps=1024.0, min_reserved_kbps=512.0,
        max_latency_ms=20.0, weight=4.0,
    ),
    ServiceClass.NRTPS: QosParams(
        max_sustained_kbps=1024.0, min_reserved_kbps=512.0, weight=2.0,
    ),
    ServiceClass.BE: QosParams(min_reserved_kbps=256.0, weight=1.0),
}

@dataclass(slots=True)
class Packet:
    """One uplink packet as a record, for callers that want objects: the
    engine keeps packets as ``PacketLog`` rows and builds none.  Only
    ``RunResult.history`` and an iterated ``traffic.Arrivals`` batch build
    them, ``departure_time`` and ``dropped`` read from the log
    (``None``/``False`` while still queued)."""

    size: int
    arrival_time: float
    departure_time: float | None = None
    dropped: bool = False


# the largest size a PacketLog's signed 64-bit size column holds
MAX_PACKET_BYTES = 2**63 - 1


class PacketLog:
    """One connection's packets in generation order, as columns, and its
    queue as a range of their rows.

    ``size`` and ``arrival`` are the connection's traffic stream, drawn
    whole before the run and shared, read only, by every cell of that
    stream.  The cell's own state is ``departure`` and ``arrived``: the
    engine raises ``arrived`` to the number of rows that have arrived by
    the end of each frame's arrivals, and a packet's exit appends its
    departure, the end of the frame that sent it, or NaN when it was
    dropped on deadline expiry.  Every exit takes the head of a FIFO
    queue, so the exited packets are a prefix of the log, and the queue
    is rows ``len(departure)`` up to ``arrived``; the rows after it are
    still to arrive, and after the last frame every row has arrived.  Row
    ``k`` has departed or been dropped iff ``k < len(departure)``.  Exits
    are appended frame by frame, in frame order, so the finite departures
    never decrease; a NaN may sit anywhere among them.  The metrics'
    binary searches rely on that order.  An elastic (non-UGS)
    connection's bandwidth request after each frame is its queue rows'
    bytes.
    """

    __slots__ = ("size", "arrival", "departure", "arrived")

    def __init__(self, size: array, arrival: array):
        self.size = size
        self.arrival = arrival
        self.departure = array("d")
        self.arrived = 0

    def packets(self) -> list[Packet]:
        """The log as ``Packet`` objects."""
        out = list(map(Packet, self.size, self.arrival))
        for pkt, dep in zip(out, self.departure):
            if math.isnan(dep):
                pkt.dropped = True
            else:
                pkt.departure_time = dep
        return out


@dataclass(frozen=True)
class FrameConfig:
    """TDD frame settings.  ``channel_bandwidth_mhz`` is informational only;
    the usable uplink capacity is configured directly in bytes per frame."""

    frame_duration_ms: float = 10.0
    uplink_capacity_bytes: int = 5375
    channel_bandwidth_mhz: float = 4.3


def bytes_per_frame(rate_kbps: float, frame: FrameConfig) -> int:
    """Whole bytes a given rate amounts to within one frame (floor).

    1 kbit/s is exactly 1 bit/ms, so this is rate * duration / 8 truncated;
    a product too large for a float raises ``OverflowError``.
    """
    if rate_kbps < 0:
        raise ValueError(f"rate must be >= 0, got {rate_kbps}")
    return int(rate_kbps * frame.frame_duration_ms / 8.0)
