"""Frame-driven simulation loop.

Each frame executes, in order: bandwidth allocation from the requests issued
at the end of the previous frame (the one-frame request/grant round trip),
new traffic arrivals, transmission against the grants, and finally the next
round of backlog requests.  Station schedulers (ss1/ss2 modes) spend their
pooled grant against the live queues, including this frame's arrivals; in
gpc mode every connection is confined to its own, one-frame-stale grant.
That asymmetry is the whole difference between the operating modes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from typing import NamedTuple

from .bs_alloc import (
    BandwidthRequest,
    allocate_gpc,
    allocation_plan,
    phase1_guarantee,
    phase2_excess,
    pool_gpss,
)
from .model import (
    DEFAULT_QOS,
    MAX_PACKET_BYTES,
    QOS_FIELDS,
    FrameConfig,
    Packet,
    PacketLog,
    QosParams,
    ServiceClass,
    bytes_per_frame,
)
from .ss_sched import Station, schedule_frame_ss1, schedule_frame_ss2
from .traffic import (Stream, TrafficKind, TrafficModel, TrafficSource, draw_rate,
                      draw_stream)


class SimMode(Enum):
    SS1 = "ss1"  # pooled grant, proposed station scheduler
    SS2 = "ss2"  # pooled grant, strict-priority comparison scheduler
    GPC = "gpc"  # per-connection grants, no station scheduler


@dataclass(frozen=True)
class ConnSpec:
    """Immutable description of one connection, its contract; a run keeps
    the connection's queue apart, in its ``PacketLog`` in
    ``Simulation.logs``, so parallel runs never share queues."""

    cid: int
    ss_id: int
    service_class: ServiceClass
    qos: QosParams
    traffic: TrafficModel


def _finite(value) -> bool:
    """``math.isfinite``, and False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# the QoS fields each class requires, those its default contract sets; it
# must leave the others unset
_QOS_REQUIRED = {cls: tuple(name for name in QOS_FIELDS
                            if getattr(qos, name) is not None)
                 for cls, qos in DEFAULT_QOS.items()}


@dataclass(frozen=True)
class Scenario:
    """A cell's frame and connections; ``conns`` is stored in ascending
    cid order, whatever order it is given in.

    Only a valid scenario can be built: construction raises
    ``ScenarioError`` naming every problem, so nothing that receives a
    ``Scenario`` checks it again.  The check keeps each connection's two
    byte budgets per frame, aligned with ``conns``: ``minimums``, the
    guarantee of the base station's phase 1 (the UGS grant, or else the
    reservation), and ``quanta``, the deficit-round quantum (the sustained
    rate, or else the reservation).  They derive from the fields, so
    neither enters equality or hashing."""

    frame: FrameConfig
    conns: tuple[ConnSpec, ...]
    minimums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    quanta: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "conns",
                           tuple(sorted(self.conns, key=lambda s: s.cid)))
        problems = self.problems()
        if problems:
            raise ScenarioError(problems)

    def problems(self) -> list[str]:
        """Every problem that keeps the scenario from running, from one
        pass over the connections; empty when it can run.  The pass sets
        ``minimums`` and ``quanta``: the one place a rate becomes bytes.

        The messages come in three runs, each in cid order: the frame, an
        empty connection list, each connection's id and QoS contract, and
        the reservation sum (which includes the fixed UGS grants, so the
        guaranteed minimums always fit one frame); each traffic model and
        UGS grant; each zero deficit-round quantum."""
        frame = self.frame
        dur, capacity = frame.frame_duration_ms, frame.uplink_capacity_bytes
        # only here do rates convert to finite byte counts per frame
        timed = dur > 0 and _finite(dur)
        contract, traffic, zero_quanta = [], [], []
        if dur <= 0:
            contract.append(f"frame duration must be > 0, got {dur}")
        elif not timed:
            contract.append(f"frame duration must be finite, got {dur}")
        if capacity <= 0:
            contract.append(f"uplink capacity must be > 0, got {capacity}")
        elif capacity % 1:  # NaN, inf or a fraction of a byte
            contract.append("uplink capacity must be a whole number of bytes, "
                            f"got {capacity}")
        if not self.conns:
            contract.append("no subscriber stations: the scenario has no connections")
        seen: set[int] = set()
        minimums, quanta = [], []
        for spec in self.conns:
            cid, cls, qos, model = spec.cid, spec.service_class, spec.qos, spec.traffic
            if cid < 0:
                contract.append(f"cid {cid}: connection ids must be non-negative")
            if cid in seen:
                contract.append(f"cid {cid}: duplicate connection id")
            seen.add(cid)

            required = _QOS_REQUIRED[cls]
            faults = [f"cid {cid}: {cls.label} connection requires {name}"
                      for name in (*required, "weight")
                      if getattr(qos, name) is None]
            faults += [f"cid {cid}: {cls.label} connection must not set {name}"
                       for name in QOS_FIELDS
                       if name not in required and getattr(qos, name) is not None]
            for name in (*QOS_FIELDS, "weight"):
                value = getattr(qos, name)
                if value is None:
                    continue
                if not _finite(value):
                    faults.append(f"cid {cid}: {name} must be finite, got {value}")
                elif value <= 0:
                    faults.append(f"cid {cid}: {name} must be > 0, got {value}")
            hi_rate, lo_rate = qos.max_sustained_kbps, qos.min_reserved_kbps
            if hi_rate is not None and lo_rate is not None and lo_rate > hi_rate:
                faults.append(f"cid {cid}: min_reserved_kbps {lo_rate} exceeds "
                              f"max_sustained_kbps {hi_rate}")
            # each rate set becomes bytes per frame here, once; a finite rate
            # may still overflow.  One that is not converted counts as 0 bytes
            budgets = []
            for name, rate in (("max_sustained_kbps", hi_rate),
                               ("min_reserved_kbps", lo_rate)):
                budget = 0
                if timed and rate is not None and _finite(rate) and rate > 0:
                    try:
                        budget = bytes_per_frame(rate, frame)
                    except OverflowError:
                        faults.append(f"cid {cid}: {name} must give a finite "
                                      f"byte count per frame, got {rate}")
                budgets.append(budget)
            sustained, reserve = budgets
            minimums.append(sustained if cls is ServiceClass.UGS else reserve)
            quanta.append(reserve if hi_rate is None else sustained)
            contract += faults

            if not _finite(model.mean_rate_kbps):
                traffic.append(f"cid {cid}: traffic mean rate must be finite")
            elif model.mean_rate_kbps <= 0:
                traffic.append(f"cid {cid}: traffic mean rate must be > 0")
            lo, hi = model.size_lo, model.size_hi
            if not 1 <= lo <= hi:
                traffic.append(f"cid {cid}: packet size range must satisfy "
                               "1 <= lo <= hi")
            elif model.kind is TrafficKind.CBR and lo != hi:
                traffic.append(f"cid {cid}: a cbr model takes one packet size")
            elif not (isinstance(lo, int) and isinstance(hi, int)):
                traffic.append(f"cid {cid}: packet sizes must be ints, "
                               f"got {lo!r} and {hi!r}")
            if hi > capacity:
                traffic.append(f"cid {cid}: packet size {hi} exceeds uplink "
                               f"capacity {capacity} bytes/frame")
            elif hi > MAX_PACKET_BYTES:
                traffic.append(f"cid {cid}: packet size {hi} exceeds the packet "
                               f"log's {MAX_PACKET_BYTES} bytes")
            if model.kind is TrafficKind.ONOFF_VBR:
                means = (model.mean_on_ms, model.mean_off_ms)
                if not all(map(_finite, means)):
                    traffic.append(f"cid {cid}: on/off mean durations must be finite")
                elif min(means) <= 0:
                    traffic.append(f"cid {cid}: on/off mean durations must be > 0")
                elif model.mean_on_ms / sum(means) == 0:
                    # ``draw_rate`` divides by the duty cycle
                    traffic.append(f"cid {cid}: on/off duty cycle on_ms / (on_ms "
                                   "+ off_ms) must be > 0, got 0")

            # the grant and quantum below hold a rate's bytes only on a timed
            # frame and a sound contract, whatever the capacity
            if not timed or faults:
                continue
            # a UGS packet larger than the fixed grant never fits it and
            # blocks its FIFO for good; checked only on a valid size range
            if cls is ServiceClass.UGS and 1 <= lo <= hi and hi > sustained:
                traffic.append(f"cid {cid}: ugs packet size {hi} "
                               f"exceeds its unsolicited grant {sustained} bytes/frame")
            # a deficit-round visit with a zero quantum never sends, and the
            # round never ends while that queue's head fits the budget
            if cls in (ServiceClass.NRTPS, ServiceClass.BE) and quanta[-1] == 0:
                zero_quanta.append(f"cid {cid}: deficit-round quantum "
                                   f"rounds to 0 bytes/frame")
        object.__setattr__(self, "minimums", tuple(minimums))
        object.__setattr__(self, "quanta", tuple(quanta))
        if (reserved := sum(minimums)) > capacity:
            contract.append(f"reserved sum exceeds uplink capacity: {reserved} > "
                            f"{capacity} bytes/frame")
        return contract + traffic + zero_quanta


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class CellStreams(NamedTuple):
    """The traffic of every cell of ``cell`` = (scenario, frames, seed,
    rho): ``streams`` holds each connection's whole ``Stream``, in
    ``scenario.conns`` order.  The streams depend on nothing else, so every
    mode of a (seed, rho) cell can run on the same ones."""

    cell: tuple[Scenario, int, int, float]
    streams: tuple[Stream, ...]


#: The most work one cell may be expected to cost: a unit per packet, per
#: on/off phase change and per connection-frame.  A packet takes 24 B of its
#: connection's log (size, arrival and departure, 8 B each), 8 B more of
#: prefix sum while its cell runs if it is elastic (non-UGS), and a
#: connection-frame an 8 B count and a pass of the frame loop, so a cell at
#: the ceiling takes at most about 1 GiB of log, 1.3 GiB while it runs; the
#: largest shipped cells (fig2-delay and fig4-violation at rho 1.2) expect
#: about 3.9e5, 115 times fewer.
MAX_CELL_WORK = 2**30 // 24


def frame_work(scenario: Scenario, rho: float) -> float:
    """Connections, plus the packets and on/off phase changes their
    sources are expected to draw, per frame at intensity ``rho``.  It
    overflows to inf for rates no cell could draw."""
    dur = scenario.frame.frame_duration_ms
    work = float(len(scenario.conns))
    for spec in scenario.conns:
        model = spec.traffic
        rate = draw_rate(spec.service_class, model, rho)
        packets = rate * dur / 8.0 / model.mean_size
        if model.kind is TrafficKind.ONOFF_VBR:
            on_off = model.mean_on_ms + model.mean_off_ms
            packets *= model.mean_on_ms / on_off  # drawn only while on
            work += 2.0 * dur / on_off
        work += packets
    return work


def burst_steps(scenario: Scenario, rho: float) -> dict[int, float]:
    """cid -> the ms each ``onoff`` source drawing traffic at intensity
    ``rho`` takes to accrue its smallest packet at its burst rate."""
    steps = {}
    for spec in scenario.conns:
        model = spec.traffic
        rate = draw_rate(spec.service_class, model, rho)
        # as ``draw_stream`` steps: size over bytes per ms, which draws
        # nothing when they are 0
        if model.kind is TrafficKind.ONOFF_VBR and (per_ms := rate / 8.0) > 0:
            steps[spec.cid] = model.size_lo / per_ms
    return steps


def cell_problems(scenario: Scenario, frames: int, rho: float) -> list[str]:
    """Why the cell cannot be drawn: no frames, work above ``MAX_CELL_WORK``
    (it would run for hours or fill memory), or an ``onoff`` source whose
    burst step is not above the clock's resolution at the last frame, where
    ``u + dt`` equals ``u`` and its packet loop never ends (one message per
    source).  Empty when the cell can be drawn."""
    if frames <= 0:
        return [f"frames must be > 0, got {frames}"]
    work = frame_work(scenario, rho)
    # divide: ``frames`` may be too large an int to convert to a float
    if not work <= MAX_CELL_WORK / frames:
        return [f"rho {rho} over {frames} frames: each frame would cost "
                f"{work:.3g} connection passes, packets and on/off phase "
                f"changes, above the ceiling of {MAX_CELL_WORK} per cell"]
    try:
        resolution = math.ulp(frames * scenario.frame.frame_duration_ms)
    except OverflowError:  # ``frames`` is too large an int for a float
        resolution = math.inf
    return [f"rho {rho} over {frames} frames: cid {cid}'s on/off bursts "
            f"accrue its smallest packet in {step:.3g} ms, not above the "
            f"clock's resolution of {resolution:.3g} ms"
            for cid, step in burst_steps(scenario, rho).items()
            if not step > resolution]


def draw_streams(scenario: Scenario, frames: int, seed: int = 1,
                 rho: float = 1.0) -> CellStreams:
    """Every connection's stream over ``frames`` frames.  A CBR draw reads
    neither the seed nor the cid, so connections with equal CBR sources
    share one stream.  A cell with ``cell_problems`` raises ``ValueError``."""
    if problems := cell_problems(scenario, frames, rho):
        raise ValueError("; ".join(problems))
    drawn: dict[object, Stream] = {}
    streams = []
    for s in scenario.conns:
        key = ((s.service_class, s.traffic) if s.traffic.kind is TrafficKind.CBR
               else s.cid)
        if key not in drawn:
            drawn[key] = draw_stream(s, s.traffic, scenario.frame, rho, seed, frames)
        streams.append(drawn[key])
    return CellStreams((scenario, frames, seed, rho), tuple(streams))


@dataclass
class RunResult:
    """Everything the metrics need: the simulation's ``PacketLog`` per
    connection (every packet of its stream: delivered, dropped or still
    queued) and the per-frame counters.  ``history`` presents the logs as
    ``Packet`` objects for callers that want them; the metrics and the CSV
    writer read the columns."""

    frames: int
    frame: FrameConfig
    conns: tuple[ConnSpec, ...]
    logs: dict[int, PacketLog]
    granted: list[int]
    used: list[int]

    @cached_property
    def history(self) -> dict[int, list[Packet]]:
        """cid -> the connection's packets as ``Packet`` objects, built
        once, on first access, so every access returns the same objects and
        edits to them stay visible."""
        return {cid: log.packets() for cid, log in self.logs.items()}


class Simulation:
    """Single deterministic run of ``frames`` frames; drive it with step(),
    or use run().

    Everything that is fixed for the cell is built here once: the
    allocation plan, one request per connection in cid order (UGS requests
    hold their fixed grant, the others are set to their queued log rows'
    bytes after every frame's transmission), the traffic feeds, the
    per-connection packet logs and the per-station class partitions.
    ``logs`` holds each connection's ``PacketLog``, in ``scenario.conns``
    order, whose rows from ``len(departure)`` up to ``arrived`` are its
    queue; the feeds, the requests' rows, the rtPS drop rows, the gpc
    drain and the stations all hold these same logs.

    ``streams`` is what ``draw_streams`` draws for the same scenario,
    frames, seed and rho; without it the run draws its own, and a cell
    ``draw_streams`` refuses raises ``ValueError``.  Streams drawn for
    another cell raise ``ValueError`` naming the part of the cell that
    differs, before any step.  Each log's ``size`` and ``arrival`` are its
    stream's columns, which no run writes, so cells, and connections
    with equal CBR sources, can share them.
    Each ``step()`` raises each log's ``arrived`` past the frame's
    arrivals, appends a departure to the log of every packet that leaves
    its queue, and the frame's bytes granted and used to ``granted`` and
    ``used``.
    """

    def __init__(
        self,
        scenario: Scenario,
        mode: SimMode,
        frames: int,
        seed: int = 1,
        rho: float = 1.0,
        drop_expired: bool = False,
        streams: CellStreams | None = None,
    ):
        self.frame_cfg = scenario.frame
        self.mode = mode
        self.drop_expired = drop_expired
        cell = (scenario, frames, seed, rho)
        if streams is None:
            streams = draw_streams(*cell)
        elif streams.cell != cell:
            part = next(name for name, drawn, given in zip(
                ("scenario", "frame count", "seed", "rho"), streams.cell, cell)
                if drawn != given)
            raise ValueError(f"streams drawn for another {part}")
        conns = scenario.conns
        self.plan = allocation_plan(scenario)
        ugs = [c.service_class is ServiceClass.UGS for c in conns]
        self.requests = list(map(
            BandwidthRequest,
            self.plan.cids,
            [m if u else 0 for m, u in zip(self.plan.minimums, ugs)],
        ))
        logs = [PacketLog(s.size, s.arrival) for s in streams.streams]
        self.logs = {c.cid: log for c, log in zip(conns, logs)}
        # per elastic connection: its request, its stream's prefix sums
        # (``before[k]``, the bytes of its first k packets) and its log
        self._elastic = [(r, array("q", accumulate(s.size, initial=0)), log)
                         for r, u, s, log in zip(self.requests, ugs, streams.streams,
                                                 logs) if not u]
        self._feeds = [(log, s.counts, TrafficSource(c, s))
                       for c, log, s in zip(conns, logs, streams.streams)]
        self._rtps = [(log, c.qos.max_latency_ms) for c, log in zip(conns, logs)
                      if c.service_class is ServiceClass.RTPS]
        # each station's (spec, log, quantum) rows
        by_ss: dict[int, list[tuple]] = {}
        for row in zip(conns, logs, scenario.quanta):
            by_ss.setdefault(row[0].ss_id, []).append(row)
        self._stations = {ss: Station(*zip(*by_ss[ss])) for ss in sorted(by_ss)}
        self.frame_index = 0
        self.granted: list[int] = []
        self.used: list[int] = []

    def step(self) -> None:
        fr = self.frame_index

        # (1) allocate against last frame's requests
        requests = self.requests
        if self.mode is SimMode.GPC:
            alloc = grants = allocate_gpc(requests, self.plan)
        else:
            result = phase2_excess(
                phase1_guarantee(requests, self.plan), requests, self.plan.weights
            )
            alloc = result.allocated
            grants = pool_gpss(result, self.plan)

        # (2) this frame's arrivals join the queues: each batch ends at the
        # row after the connection's last arrival so far
        for log, counts, source in self._feeds:
            if counts[fr]:
                log.arrived = source.generate(fr).stop

        frame_end = (fr + 1) * self.frame_cfg.frame_duration_ms

        # optional drop-on-expiry: an rtPS packet that would miss its deadline
        # (arrival plus its connection's bound) even if sent now is discarded
        if self.drop_expired:
            for log, bound in self._rtps:
                departure, arrival = log.departure, log.arrival
                head = k = len(departure)
                tail = log.arrived
                while k < tail and arrival[k] + bound < frame_end:
                    k += 1
                if k > head:
                    departure.extend(repeat(math.nan, k - head))

        # (3) transmission against the grants
        used = 0
        if self.mode is SimMode.GPC:
            # each connection drains its own FIFO against its own grant; a
            # one-connection station per cid through schedule_frame_ss2
            # sends the same packets, but its calls made a 3000-frame gpc
            # cell 1.5 to 1.8 times as slow
            for cid, log in self.logs.items():
                departure = log.departure
                head = k = len(departure)
                tail = log.arrived
                if k == tail:
                    continue
                budget, sizes = grants[cid], log.size
                while k < tail:
                    size = sizes[k]
                    if size > budget:
                        break
                    budget -= size
                    used += size
                    k += 1
                run = k - head
                if run == 1:
                    departure.append(frame_end)
                elif run:
                    departure.extend(repeat(frame_end, run))
        else:
            schedule = (schedule_frame_ss1 if self.mode is SimMode.SS1
                        else schedule_frame_ss2)
            for ss, station in self._stations.items():
                used += schedule(station, grants[ss], frame_end).total_bytes

        # (4) next frame's requests report the post-transmission backlog
        for req, before, log in self._elastic:
            req.requested_bytes = before[log.arrived] - before[len(log.departure)]

        self.granted.append(sum(alloc.values()))
        self.used.append(used)
        self.frame_index = fr + 1


def run(
    scenario: Scenario,
    mode: SimMode,
    frames: int,
    seed: int = 1,
    rho: float = 1.0,
    drop_expired: bool = False,
    streams: CellStreams | None = None,
) -> RunResult:
    """Execute a full deterministic run and gather the metric inputs;
    ``streams`` are as in ``Simulation``."""
    sim = Simulation(scenario, mode, frames, seed=seed, rho=rho,
                     drop_expired=drop_expired, streams=streams)
    for _ in range(frames):
        sim.step()
    return RunResult(
        frames=frames,
        frame=scenario.frame,
        conns=scenario.conns,
        logs=sim.logs,
        granted=sim.granted,
        used=sim.used,
    )
