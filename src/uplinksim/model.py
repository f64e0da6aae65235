"""Domain model: service classes, QoS contracts, connections, packets and
their logs, frames.

All scheduling arithmetic runs on integer bytes per frame; kbit/s rates from
the configuration are converted exactly once at scenario load (see
``bytes_per_frame``), which keeps conservation checks exact.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
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

    Which fields must be present depends on the owning service class:
    UGS needs a sustained rate, RTPS all three parameters, NRTPS both
    rates, BE only a reserved rate.  ``weight`` drives the excess-bandwidth
    distribution at the base station.
    """

    max_sustained_kbps: float | None = None
    min_reserved_kbps: float | None = None
    max_latency_ms: float | None = None
    weight: float = 1.0


#: The QoS contract's optional fields, in message and file order.
QOS_FIELDS = ("max_sustained_kbps", "min_reserved_kbps", "max_latency_ms")

# the fields each class requires; it must leave the others unset
_QOS_REQUIRED: dict[ServiceClass, tuple[str, ...]] = {
    ServiceClass.UGS: ("max_sustained_kbps",),
    ServiceClass.RTPS: QOS_FIELDS,
    ServiceClass.NRTPS: ("max_sustained_kbps", "min_reserved_kbps"),
    ServiceClass.BE: ("min_reserved_kbps",),
}


@dataclass(slots=True)
class Packet:
    """One uplink packet while it is queued.  An rtPS packet's deadline is
    ``arrival_time`` plus its connection's ``max_latency_ms``.

    The engine never writes ``departure_time`` or ``dropped``: a packet's
    exit is recorded in its connection's ``PacketLog``.  Only the
    ``Packet`` objects that ``RunResult.history`` rebuilds from the logs
    carry them (``None``/``False`` while still queued)."""

    size: int
    arrival_time: float
    departure_time: float | None = None
    dropped: bool = False


# the largest size a PacketLog's signed 64-bit size column holds
MAX_PACKET_BYTES = 2**63 - 1


class PacketLog:
    """One connection's packets in generation order, as columns.

    ``size`` and ``arrival`` are the connection's traffic stream, drawn
    whole before the run and shared, read only, by every cell of that
    stream.  The cell's own column is ``departure``: the engine appends a
    packet's departure when it leaves its queue, the end of the frame that
    sent it, or NaN when it was dropped on deadline expiry.  Every exit is
    a pop from the head of a FIFO queue, so the exited packets are a prefix
    of the log.  Exits are appended frame by frame, in frame order, so the
    finite departures never decrease; a NaN may sit anywhere among them.
    The metrics' binary searches rely on that order.  Between frames the
    rows from ``len(departure)`` up to the number arrived are the queue,
    and the rows after them are still to arrive; after the last frame every
    row has arrived.  Row ``k`` has departed or been dropped iff
    ``k < len(departure)``.
    """

    __slots__ = ("size", "arrival", "departure")

    def __init__(self, size: array, arrival: array):
        self.size = size
        self.arrival = arrival
        self.departure = array("d")

    def packets(self) -> list[Packet]:
        """The log as ``Packet`` objects."""
        out = list(map(Packet, self.size, self.arrival))
        for pkt, dep in zip(out, self.departure):
            if math.isnan(dep):
                pkt.dropped = True
            else:
                pkt.departure_time = dep
        return out


@dataclass
class Connection:
    """A CID-identified uplink flow with its FIFO packet queue."""

    cid: int
    ss_id: int
    service_class: ServiceClass
    qos: QosParams
    queue: deque = field(default_factory=deque)


@dataclass(frozen=True)
class FrameConfig:
    """TDD frame settings.  ``channel_bandwidth_mhz`` is informational only;
    the usable uplink capacity is configured directly in bytes per frame."""

    frame_duration_ms: float = 10.0
    uplink_capacity_bytes: int = 5375
    channel_bandwidth_mhz: float = 4.3


def bytes_per_frame(rate_kbps: float, frame: FrameConfig) -> int:
    """Whole bytes a given rate amounts to within one frame (floor).

    1 kbit/s is exactly 1 bit/ms, so this is rate * duration / 8 truncated.
    """
    if rate_kbps < 0:
        raise ValueError(f"rate must be >= 0, got {rate_kbps}")
    return int(rate_kbps * frame.frame_duration_ms / 8.0)


def guaranteed_bytes(conn: Connection, frame: FrameConfig) -> int:
    """Per-frame byte reservation backing this connection's rate guarantee.

    UGS has no reserved rate: its fixed unsolicited grant equals one frame's
    worth of its sustained rate.  All other classes reserve their minimum
    reserved rate.
    """
    if conn.service_class is ServiceClass.UGS:
        return bytes_per_frame(conn.qos.max_sustained_kbps or 0.0, frame)
    return bytes_per_frame(conn.qos.min_reserved_kbps or 0.0, frame)


def qos_violations(cid: int, service_class: ServiceClass, qos: QosParams) -> list[str]:
    """All contract violations for one connection's QoS block."""
    required = _QOS_REQUIRED[service_class]
    problems = [f"cid {cid}: {service_class.label} connection requires {name}"
                for name in required if getattr(qos, name) is None]
    problems += [f"cid {cid}: {service_class.label} connection must not set {name}"
                 for name in QOS_FIELDS
                 if name not in required and getattr(qos, name) is not None]
    for name in (*QOS_FIELDS, "weight"):
        value = getattr(qos, name)
        if value is None:
            continue
        if not math.isfinite(value):
            problems.append(f"cid {cid}: {name} must be finite, got {value}")
        elif value <= 0:
            problems.append(f"cid {cid}: {name} must be > 0, got {value}")
    if (
        qos.max_sustained_kbps is not None
        and qos.min_reserved_kbps is not None
        and qos.min_reserved_kbps > qos.max_sustained_kbps
    ):
        problems.append(
            f"cid {cid}: min_reserved_kbps {qos.min_reserved_kbps} exceeds "
            f"max_sustained_kbps {qos.max_sustained_kbps}"
        )
    return problems


def validate_scenario(connections, frame: FrameConfig) -> list[str]:
    """Check every QoS contract plus the cell-wide reservation budget of
    ``connections``, which need only ``cid``, ``service_class`` and ``qos``.

    Returns all violations found (not just the first); an empty list means
    the scenario is valid.  The reservation budget includes the fixed UGS
    grants, so a valid scenario guarantees the per-frame minimum allocation
    always fits the uplink capacity.
    """
    problems: list[str] = []
    if frame.frame_duration_ms <= 0:
        problems.append(f"frame duration must be > 0, got {frame.frame_duration_ms}")
    if frame.uplink_capacity_bytes <= 0:
        problems.append(
            f"uplink capacity must be > 0, got {frame.uplink_capacity_bytes}"
        )
        return problems

    seen: set[int] = set()
    reserved = 0
    for conn in connections:
        if conn.cid < 0:
            problems.append(f"cid {conn.cid}: connection ids must be non-negative")
        if conn.cid in seen:
            problems.append(f"cid {conn.cid}: duplicate connection id")
        seen.add(conn.cid)
        problems.extend(qos_violations(conn.cid, conn.service_class, conn.qos))
        # a finite rate may still overflow when converted to bytes per frame
        # (a grant, reservation or deficit-round quantum)
        for name in ("max_sustained_kbps", "min_reserved_kbps"):
            rate = getattr(conn.qos, name)
            if (rate is not None and 0 < rate < math.inf
                    and rate * frame.frame_duration_ms / 8.0 == math.inf):
                problems.append(f"cid {conn.cid}: {name} must give a finite "
                                f"byte count per frame, got {rate}")
        try:
            reserved += guaranteed_bytes(conn, frame)
        except (ValueError, OverflowError):
            pass  # already reported as a rate violation above

    if reserved > frame.uplink_capacity_bytes:
        problems.append(
            f"reserved sum exceeds uplink capacity: {reserved} > "
            f"{frame.uplink_capacity_bytes} bytes/frame"
        )
    return problems
