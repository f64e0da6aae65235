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
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .bs_alloc import (
    BandwidthRequest,
    allocate_gpc,
    allocation_plan,
    phase1_guarantee,
    phase2_excess,
    pool_gpss,
)
from .model import (
    Connection,
    FrameConfig,
    Packet,
    PacketLog,
    QosParams,
    ServiceClass,
    guaranteed_bytes,
    qos_violations,
    validate_scenario,
)
from .ss_sched import Station, quantum_for, schedule_frame_ss1, schedule_frame_ss2
from .traffic import (
    Stream,
    TrafficModel,
    TrafficSource,
    draw_stream,
    model_violations,
)


class SimMode(Enum):
    SS1 = "ss1"  # pooled grant, proposed station scheduler
    SS2 = "ss2"  # pooled grant, strict-priority comparison scheduler
    GPC = "gpc"  # per-connection grants, no station scheduler


@dataclass(frozen=True)
class ConnSpec:
    """Immutable description of one connection; runs instantiate fresh
    Connection objects from it so parallel runs never share queues."""

    cid: int
    ss_id: int
    service_class: ServiceClass
    qos: QosParams
    traffic: TrafficModel


@dataclass(frozen=True)
class Scenario:
    """A cell's frame and connections; ``conns`` is stored in ascending
    cid order, whatever order it is given in.

    Only a valid scenario can be built: construction raises
    ``ScenarioError`` naming every problem, so nothing that receives a
    ``Scenario`` checks it again."""

    frame: FrameConfig
    conns: tuple[ConnSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "conns",
                           tuple(sorted(self.conns, key=lambda s: s.cid)))
        problems = self.problems()
        if problems:
            raise ScenarioError(problems)

    def build_connections(self) -> list[Connection]:
        return [
            Connection(
                cid=s.cid,
                ss_id=s.ss_id,
                service_class=s.service_class,
                qos=s.qos,
                queue=deque(),
            )
            for s in self.conns
        ]

    def problems(self) -> list[str]:
        """Every QoS, reservation and traffic-model violation; empty when
        the scenario can run."""
        problems = validate_scenario(self.conns, self.frame)
        for spec in self.conns:
            problems.extend(model_violations(spec.cid, spec.traffic, self.frame))
            # a UGS packet larger than the fixed grant never fits it and
            # blocks its FIFO for good; checked only on a valid frame,
            # contract and size range, whose faults are reported above
            size = spec.traffic.size_hi
            if (spec.service_class is ServiceClass.UGS
                    and self.frame.frame_duration_ms > 0
                    and 1 <= spec.traffic.size_lo <= size
                    and not qos_violations(spec.cid, spec.service_class, spec.qos)):
                try:
                    grant = guaranteed_bytes(spec, self.frame)
                except OverflowError:
                    continue  # reported by validate_scenario
                if size > grant:
                    problems.append(f"cid {spec.cid}: ugs packet size {size} "
                                    f"exceeds its unsolicited grant {grant} bytes/frame")
        # a deficit-round visit with a zero quantum never sends, and the
        # round never ends while that queue's head fits the budget; checked,
        # like the grant above, only on a valid frame and contract
        for spec in self.conns:
            if (spec.service_class in (ServiceClass.NRTPS, ServiceClass.BE)
                    and self.frame.frame_duration_ms > 0
                    and not qos_violations(spec.cid, spec.service_class, spec.qos)):
                try:
                    quantum = quantum_for(spec, self.frame)
                except OverflowError:
                    continue  # reported by validate_scenario
                if quantum == 0:
                    problems.append(f"cid {spec.cid}: deficit-round quantum "
                                    f"rounds to 0 bytes/frame")
        return problems


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def draw_streams(scenario: Scenario, frames: int, seed: int = 1,
                 rho: float = 1.0) -> dict[int, Stream]:
    """cid -> that connection's whole stream over ``frames`` frames.  The
    streams depend on nothing else, so every mode of a (seed, rho) cell can
    run on the same ones."""
    return {s.cid: draw_stream(s, s.traffic, scenario.frame, rho, seed, frames)
            for s in scenario.conns}


@dataclass
class RunResult:
    """Everything the metrics need: the simulation's ``PacketLog`` per
    connection (every packet of its stream: delivered, dropped or still
    queued) and the per-frame counters.  ``history`` presents the logs as
    ``Packet`` objects for callers that want them; the metrics and the CSV
    writer read the columns."""

    mode: SimMode
    seed: int
    rho: float
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

    def backlog(self, cid: int) -> int:
        """Bytes still queued at run end."""
        log = self.logs[cid]
        return sum(log.size[len(log.departure):])


class Simulation:
    """Single deterministic run of ``frames`` frames; drive it with step(),
    or use run().

    Everything that is fixed for the cell is built here once: the
    allocation plan, one request per connection in cid order (UGS requests
    hold their fixed grant, the others are refreshed from the backlog after
    every frame's transmission), the traffic feeds, the per-connection
    packet logs and the per-station class partitions.

    ``streams`` maps cid to that connection's ``Stream``, as
    ``draw_streams`` draws it for the same scenario, seed, rho and frames;
    without it the run draws its own.  A dict whose cids differ from the
    scenario's, or a stream drawn for another number of frames, seed, rho
    or traffic model, raises ``ValueError`` naming the cid before any step.
    Each log's ``size`` and ``arrival`` are its stream's columns, which no
    run writes, so cells can share them.
    Each ``step()`` appends a departure to the log of every packet that
    leaves its queue, and the frame's bytes granted and used to
    ``granted`` and ``used``.
    """

    def __init__(
        self,
        scenario: Scenario,
        mode: SimMode,
        frames: int,
        seed: int = 1,
        rho: float = 1.0,
        drop_expired: bool = False,
        streams: dict[int, Stream] | None = None,
    ):
        if frames <= 0:
            raise ValueError(f"frames must be > 0, got {frames}")
        self.frame_cfg = scenario.frame
        self.mode = mode
        self.drop_expired = drop_expired
        if streams is None:
            streams = draw_streams(scenario, frames, seed, rho)
        stray = streams.keys() ^ {spec.cid for spec in scenario.conns}
        if stray:
            cid = min(stray)
            problem = "no such connection" if cid in streams else "no stream given"
            raise ValueError(f"cid {cid}: {problem}")
        for spec in scenario.conns:
            stream = streams[spec.cid]
            drawn = len(stream.counts)
            if drawn != frames:
                raise ValueError(f"cid {spec.cid}: stream drawn for {drawn} "
                                 f"frames, run has {frames}")
            if stream.model != spec.traffic:
                raise ValueError(f"cid {spec.cid}: stream drawn for another "
                                 f"traffic model")
            if (stream.seed, stream.rho) != (seed, rho):
                raise ValueError(f"cid {spec.cid}: stream drawn for seed "
                                 f"{stream.seed}, rho {stream.rho}, run has "
                                 f"seed {seed}, rho {rho}")
        self.connections = scenario.build_connections()

        cfg = self.frame_cfg
        conns = self.connections
        self.plan = allocation_plan(conns, cfg)
        ugs = [c.service_class is ServiceClass.UGS for c in conns]
        self.requests = list(map(
            BandwidthRequest,
            self.plan.cids,
            [guaranteed_bytes(c, cfg) if u else 0 for c, u in zip(conns, ugs)],
        ))
        self._elastic = [r for r, u in zip(self.requests, ugs) if not u]
        self.logs = {c.cid: PacketLog(streams[c.cid].size, streams[c.cid].arrival)
                     for c in conns}
        self._feeds = [(c.queue, c.cid, streams[c.cid].counts,
                        TrafficSource(c, streams[c.cid])) for c in conns]
        # departure appends bound once per connection
        self._depart = {cid: log.departure.append for cid, log in self.logs.items()}
        self._rtps = [c for c in conns if c.service_class is ServiceClass.RTPS]
        self._stations = {
            ss: Station([c for c in conns if c.ss_id == ss], cfg)
            for ss in sorted({c.ss_id for c in conns})
        }
        self.frame_index = 0
        self._backlog: dict[int, int] = {c.cid: 0 for c in conns}
        self.granted: list[int] = []
        self.used: list[int] = []

    def step(self) -> None:
        fr = self.frame_index
        backlog = self._backlog

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

        # (2) this frame's arrivals join the live queues
        for q, cid, counts, source in self._feeds:
            if counts[fr]:
                pkts = source.generate(fr)
                q.extend(pkts)
                nbytes = 0
                for p in pkts:
                    nbytes += p.size
                backlog[cid] += nbytes

        frame_end = (fr + 1) * self.frame_cfg.frame_duration_ms

        # optional drop-on-expiry: an rtPS packet that would miss its deadline
        # (arrival plus its connection's bound) even if sent now is discarded
        if self.drop_expired:
            for conn in self._rtps:
                q = conn.queue
                bound = conn.qos.max_latency_ms
                while q and q[0].arrival_time + bound < frame_end:
                    self._depart[conn.cid](math.nan)
                    backlog[conn.cid] -= q.popleft().size

        # (3) transmission against the grants
        used = 0
        depart = self._depart
        if self.mode is SimMode.GPC:
            for conn in self.connections:
                q = conn.queue
                if not q:
                    continue
                budget = grants.get(conn.cid, 0)
                log_departure = depart[conn.cid]
                while q and q[0].size <= budget:
                    size = q.popleft().size
                    budget -= size
                    used += size
                    log_departure(frame_end)
                    backlog[conn.cid] -= size
        else:
            schedule = (schedule_frame_ss1 if self.mode is SimMode.SS1
                        else schedule_frame_ss2)
            for ss, station in self._stations.items():
                tx = schedule(station, grants.get(ss, 0))
                for cid, pkt in tx.entries:
                    depart[cid](frame_end)
                    backlog[cid] -= pkt.size
                used += tx.total_bytes

        # (4) next frame's requests report the post-transmission backlog
        for req in self._elastic:
            req.requested_bytes = backlog[req.cid]

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
    streams: dict[int, Stream] | None = None,
) -> RunResult:
    """Execute a full deterministic run and gather the metric inputs;
    ``streams`` are as in ``Simulation``."""
    sim = Simulation(scenario, mode, frames, seed=seed, rho=rho,
                     drop_expired=drop_expired, streams=streams)
    for _ in range(frames):
        sim.step()
    return RunResult(
        mode=mode,
        seed=seed,
        rho=rho,
        frames=frames,
        frame=scenario.frame,
        conns=scenario.conns,
        logs=sim.logs,
        granted=sim.granted,
        used=sim.used,
    )
