import math
import time
import tracemalloc
from array import array
from dataclasses import replace
from functools import partial
from itertools import product

import pytest

from conftest import frame, spec
from perfbench.invariants import check_cell
from reference import backlog, queued_packets
from uplinksim import _kernels_py, engine
from uplinksim.cli import run_matrix
from uplinksim.config import baseline_config, baseline_scenario
from uplinksim.engine import (
    CellStreams,
    Scenario,
    ScenarioError,
    SimMode,
    Simulation,
    draw_streams,
    run,
)
from uplinksim.model import Packet, ServiceClass, bytes_per_frame
from uplinksim.traffic import (Stream, TrafficKind, TrafficModel, TrafficSource,
                               draw_stream)


def cbr_scenario(rate_kbps=256.0, size=320, classes=(ServiceClass.NRTPS,),
                 capacity=5375, n_ss=1):
    """Small constant-rate scenario for timing-contract tests."""
    specs = []
    cid = 0
    for ss in range(n_ss):
        for cls in classes:
            specs.append(spec(cid, cls, ss=ss, model=TrafficModel(
                TrafficKind.CBR, rate_kbps, size, size)))
            cid += 1
    return Scenario(frame=frame(capacity=capacity), conns=tuple(specs))


def packet_key(result):
    return [
        (s.cid, p.size, p.arrival_time, p.departure_time, p.dropped)
        for s in result.conns
        for p in result.history[s.cid]
    ]


def test_each_rate_becomes_bytes_once_as_the_scenario_is_built(monkeypatch):
    # the allocator and the stations read the budgets the check converted;
    # the UGS grant and the BE reservation were once converted twice while
    # checking and again for every cell
    converted = []

    def counted(rate, frame_cfg):
        converted.append(rate)
        return bytes_per_frame(rate, frame_cfg)

    monkeypatch.setattr(engine, "bytes_per_frame", counted)
    scenario = baseline_scenario()
    rates = [rate for c in scenario.conns
             for rate in (c.qos.max_sustained_kbps, c.qos.min_reserved_kbps)
             if rate is not None]
    assert 0 < len(converted) <= len(rates)
    converted.clear()
    at = {c.cid: k for k, c in enumerate(scenario.conns)}
    for mode in SimMode:
        sim = Simulation(scenario, mode, 20)
        for _ in range(20):
            sim.step()
        assert sim.plan.minimums == scenario.minimums
        for station in sim._stations.values():
            assert station.drr_cids
            assert station.quantum == [scenario.quanta[at[cid]]
                                       for cid in station.drr_cids]
    assert converted == []


def test_frame0_issues_only_ugs_synthetic_grants():
    sim = Simulation(baseline_scenario(), SimMode.SS1, 1, seed=1)
    ugs = {s.cid for s in baseline_scenario().conns
           if s.service_class is ServiceClass.UGS}
    # no backlog is reported yet: only the UGS requests hold bytes, and
    # since no connection is awarded more than it requests, granting their
    # sum awards each UGS connection its full 320 bytes and no one else any
    assert {r.cid: r.requested_bytes for r in sim.requests
            if r.requested_bytes} == dict.fromkeys(ugs, 320)
    sim.step()
    assert sim.granted == [320 * len(ugs)]


def test_ugs_cbr_departs_within_two_frames():
    scenario = cbr_scenario(classes=(ServiceClass.UGS,))
    result = run(scenario, SimMode.SS1, 10, seed=1)
    pkts = result.history[0]
    assert len(pkts) == 10
    for p in pkts:
        assert p.departure_time is not None
        assert p.departure_time - p.arrival_time <= 20.0


def test_zero_traffic_zero_transmissions():
    scenario = cbr_scenario(classes=(ServiceClass.NRTPS, ServiceClass.BE))
    for mode in SimMode:
        result = run(scenario, mode, 20, seed=1, rho=0.0)
        assert result.used == [0] * 20
        assert all(not result.history[s.cid] for s in result.conns)


def test_run_is_deterministic():
    cfg = baseline_config()
    a = run(cfg.scenario, SimMode.SS1, 300, seed=3, rho=1.1)
    b = run(cfg.scenario, SimMode.SS1, 300, seed=3, rho=1.1)
    assert packet_key(a) == packet_key(b)
    assert a.used == b.used and a.granted == b.granted


def test_single_frame_run():
    result = run(cbr_scenario(), SimMode.GPC, 1, seed=1)
    assert result.frames == 1
    assert len(result.used) == 1


def test_run_rejects_bad_frame_count_and_invalid_scenario():
    with pytest.raises(ValueError):
        run(cbr_scenario(), SimMode.SS1, 0, seed=1)
    # an invalid scenario cannot be built, so no run can be handed one
    with pytest.raises(ScenarioError):
        Scenario(
            frame=frame(capacity=100),
            conns=(
                spec(0, ServiceClass.RTPS,
                     model=TrafficModel(TrafficKind.CBR, 64.0, 80, 80)),
            ),
        )

    # nor one with non-finite contracts or sources; non-finite intensities
    # fail before frame 0
    good = baseline_scenario()
    rtps = next(s for s in good.conns if s.service_class is ServiceClass.RTPS)
    nan, inf = float("nan"), float("inf")
    for bad in (replace(rtps, qos=replace(rtps.qos, weight=nan)),
                replace(rtps, qos=replace(rtps.qos, min_reserved_kbps=inf)),
                replace(rtps, traffic=replace(rtps.traffic, mean_rate_kbps=nan)),
                replace(rtps, traffic=replace(rtps.traffic, mean_on_ms=inf))):
        with pytest.raises(ScenarioError):
            replace(good, conns=tuple(
                bad if s.cid == bad.cid else s for s in good.conns))
    for rho in (nan, inf):
        with pytest.raises(ValueError):
            Simulation(good, SimMode.SS1, 10, seed=1, rho=rho)


# an on/off source of duty 1e-12, whose bursts step below the clock
BURSTY = Scenario(frame=frame(capacity=16000), conns=(spec(
    0, ServiceClass.RTPS, model=TrafficModel(TrafficKind.ONOFF_VBR, 1000.0, 100, 100,
                                             mean_on_ms=1e-9, mean_off_ms=1000.0)),))


@pytest.mark.parametrize("conns, frames, rho, message", [
    # spun in the Poisson loop, about 2e297 chunks per frame
    (baseline_scenario().conns, 10, 1e300, "rho 1e+300 over 10 frames: each "
     "frame would cost 1.56e+301 connection passes, packets and on/off phase "
     "changes, above the ceiling of 44739242 per cell"),
    # would have filled memory: 3.6e13 connection-frames
    (baseline_scenario().conns, 10**12, 1.0, "rho 1.0 over 1000000000000 "
     "frames: each frame would cost 35.7 connection passes"),
    # appended packets at one instant until memory ran out
    (BURSTY.conns, 2000, 1.0, "rho 1.0 over 2000 frames: cid 0's on/off "
     "bursts accrue its smallest packet in 8e-13 ms, not above the clock's "
     "resolution of 3.64e-12 ms"),
    # a scenario without connections built, ran and failed its summary;
    # now it cannot be built, so no entry is reached
    ((), 10**12, 1.0, "no subscriber stations"),
], ids=["rho-1e300", "frames-1e12", "bursts-below-the-clock", "no-connections"])
def test_a_cell_no_run_could_draw_is_refused_before_any_draw(monkeypatch, conns,
                                                            frames, rho, message):
    # the matrix was guarded, but ``run`` and ``Simulation`` called
    # directly reached ``draw_stream``; ``draw_streams`` now refuses the cell
    monkeypatch.setattr(engine, "draw_stream", None)
    for entry in (partial(run, mode=SimMode.SS1),
                  partial(Simulation, mode=SimMode.SS1),
                  draw_streams):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            entry(Scenario(frame(capacity=16000), conns), frames=frames, seed=1,
                  rho=rho)
        assert time.perf_counter() - start < 1.0
        assert str(info.value).startswith(message), entry
        assert isinstance(info.value, ScenarioError) == (not conns)


def test_packet_conservation_every_mode(monkeypatch):
    # every invariant of check_cell: bytes conserved, exits a FIFO prefix,
    # departures at frame ends, used <= granted <= capacity and each
    # frame's departures summing to its used bytes; and only phase 2's
    # contended case reaches the water-filling kernel, whose domain is
    # 0 < remaining < the sum of the positive deficits
    waterfill = _kernels_py.waterfill
    calls = []

    def checked(deficits, weights, remaining):
        assert 0 < remaining < sum(d for d in deficits if d > 0), (
            deficits, remaining)
        calls.append(remaining)
        return waterfill(deficits, weights, remaining)

    monkeypatch.setattr(_kernels_py, "waterfill", checked)
    scenario = baseline_scenario()
    for rho, mode, drop in product((0.4, 1.2, 3.0), SimMode, (False, True)):
        result = run(scenario, mode, 300, seed=4, rho=rho, drop_expired=drop)
        assert check_cell(result) == [], (rho, mode, drop)
        # stricter than check_cell, which allows a departure at the instant
        # of its packet's arrival: here none departs that early
        for log in result.logs.values():
            assert all(dep > arr for dep, arr in zip(log.departure, log.arrival)
                       if not math.isnan(dep))
    assert calls


def test_causality_and_grant_safety():
    cfg = baseline_config()
    capacity = cfg.scenario.frame.uplink_capacity_bytes
    for mode in SimMode:
        result = run(cfg.scenario, mode, 300, seed=4, rho=1.2)
        assert all(u <= capacity for u in result.used)
        assert all(g <= capacity for g in result.granted)
        for s in result.conns:
            for p in result.history[s.cid]:
                if p.departure_time is not None:
                    assert p.departure_time > p.arrival_time


def test_departures_quantized_to_frame_end():
    result = run(cbr_scenario(), SimMode.SS1, 50, seed=1)
    dur = result.frame.frame_duration_ms
    for s in result.conns:
        for p in result.history[s.cid]:
            if p.departure_time is not None:
                assert p.departure_time % dur == 0


# Whole-loop metamorphic relations: each relates runs of this simulator to
# one another, on the built-in cell at the rhos below, drop-on-expiry off
# and on, and compares every log's departures (NaN, a drop, read as None),
# ``granted`` and ``used`` exactly
RELATION_FRAMES, RELATION_SEED, RELATION_RHOS = 600, 3, (0.4, 1.2, 3.0)


def outcome(result):
    """A run's departures per cid, then its per-frame grants and use."""
    return ({cid: [None if math.isnan(d) else d for d in log.departure]
             for cid, log in result.logs.items()},
            list(result.granted), list(result.used))


def regrouped(scenario, station_of):
    """``scenario`` with connection ``cid`` on station ``station_of(cid)``."""
    return replace(scenario, conns=tuple(replace(s, ss_id=station_of(s.cid))
                                         for s in scenario.conns))


def relation_runs(scenario, modes):
    """(rho, drop_expired, mode) -> the outcome of that run of ``scenario``."""
    runs = {}
    for rho in RELATION_RHOS:
        streams = draw_streams(scenario, RELATION_FRAMES, RELATION_SEED, rho)
        for drop, mode in product((False, True), modes):
            runs[rho, drop, mode] = outcome(run(
                scenario, mode, RELATION_FRAMES, seed=RELATION_SEED, rho=rho,
                drop_expired=drop, streams=streams))
    return runs


def test_mode_equivalence_single_connection_stations():
    # with one connection per station the pooled grant IS the per-connection
    # grant, so both modes must behave identically frame by frame
    scenario = cbr_scenario(rate_kbps=128.0, size=160,
                            classes=(ServiceClass.NRTPS,), n_ss=3)
    a = run(scenario, SimMode.SS1, 200, seed=5)
    b = run(scenario, SimMode.GPC, 200, seed=5)
    assert packet_key(a) == packet_key(b)
    # R1: so too on the built-in cell, every class and source on a station
    # of its own, where ss1 and ss2 run their kernels on empty classes in
    # every frame and ss1's deficit round on no queue at all or on one
    runs = relation_runs(regrouped(baseline_scenario(), lambda cid: cid),
                         tuple(SimMode))
    for rho, drop in product(RELATION_RHOS, (False, True)):
        assert (runs[rho, drop, SimMode.SS1] == runs[rho, drop, SimMode.GPC]
                == runs[rho, drop, SimMode.SS2]), (rho, drop)


def test_gpc_ignores_how_connections_are_grouped_into_stations():
    # R2: per-connection grants never pool, so moving connections between
    # stations changes nothing in gpc
    scenario = baseline_scenario()
    base = relation_runs(scenario, (SimMode.GPC,))
    for station_of in (lambda cid: cid, lambda cid: 0, lambda cid: cid % 3):
        assert relation_runs(regrouped(scenario, station_of), (SimMode.GPC,)) == base


def test_a_ugs_station_with_its_grant_added_to_the_capacity_changes_no_other():
    # R3: a UGS contract is a fixed grant in phase 1 and no share of phase
    # 2, so a new station of one UGS connection on a capacity raised by
    # exactly that grant leaves every other connection as it was, and adds
    # the grant to every frame's ``granted``
    scenario = baseline_scenario()
    ugs = next(s for s in scenario.conns if s.service_class is ServiceClass.UGS)
    new = replace(ugs, cid=max(s.cid for s in scenario.conns) + 1,
                  ss_id=max(s.ss_id for s in scenario.conns) + 1)
    grant = Scenario(scenario.frame, (new,)).minimums[0]
    assert grant == 320
    frame_cfg = replace(scenario.frame, uplink_capacity_bytes=(
        scenario.frame.uplink_capacity_bytes + grant))
    base = relation_runs(scenario, tuple(SimMode))
    more = relation_runs(Scenario(frame_cfg, (*scenario.conns, new)), tuple(SimMode))
    for key, (departures, granted, _) in base.items():
        grown, grown_granted, _ = more[key]
        assert {cid: grown[cid] for cid in departures} == departures, key
        assert grown_granted == [g + grant for g in granted], key


def test_mode_equivalence_eventual_delivery_without_contention():
    # multi-class stations: the pooled scheduler reorders against the live
    # queues, so per-frame sets may differ, but with demand below every
    # reservation both modes deliver everything with a small bounded lag
    scenario = cbr_scenario(
        rate_kbps=128.0, size=160,
        classes=(ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE),
        n_ss=2,
    )
    a = run(scenario, SimMode.SS1, 200, seed=5)
    b = run(scenario, SimMode.GPC, 200, seed=5)
    for result in (a, b):
        for s in result.conns:
            for p in result.history[s.cid]:
                if p.arrival_time < 1950.0:  # allow drain slack at run end
                    assert p.departure_time is not None
                    assert p.departure_time - p.arrival_time <= 50.0


def test_gpc_spends_grants_only_on_their_own_connection():
    # hand-built frame: two packets arrive for cid 0, which requested
    # nothing, and cid 1 holds a grant-sized request but no packets;
    # per-connection grants cannot be borrowed, the pooled scheduler
    # reuses them freely
    specs = (
        spec(0, ServiceClass.NRTPS,
             model=TrafficModel(TrafficKind.CBR, 512.0, 640, 640)),
        spec(1, ServiceClass.NRTPS,
             model=TrafficModel(TrafficKind.CBR, 512.0, 640, 640)),
    )
    scenario = Scenario(frame=frame(capacity=5375), conns=specs)
    streams = CellStreams((scenario, 1, 1, 0.0), (
        Stream(array("q", [640, 640]), array("d", [0.0, 1.0]), array("q", [2])),
        Stream(array("q"), array("d"), array("q", [0]))))

    def prepared(mode):
        sim = Simulation(scenario, mode, 1, seed=1, rho=0.0, streams=streams)
        for req in sim.requests:
            req.requested_bytes = {0: 0, 1: 1280}[req.cid]
        return sim

    gpc = prepared(SimMode.GPC)
    gpc.step()
    # only cid 1 requested, and no connection is awarded more than it
    # requests, so all 1280 granted bytes are cid 1's
    assert gpc.granted == [1280]
    assert gpc.used == [0]  # the grant owner has nothing to send

    pooled = prepared(SimMode.SS1)
    pooled.step()
    assert pooled.granted == [1280]
    assert pooled.used == [1280]  # cid 0 spends the pooled bytes


def test_drop_expired_removes_late_rtps():
    scenario = baseline_scenario()
    kept = run(scenario, SimMode.GPC, 600, seed=3, rho=1.4)
    dropped = run(scenario, SimMode.GPC, 600, seed=3, rho=1.4, drop_expired=True)

    def late_deliveries(result):
        n = 0
        for s in result.conns:
            if s.service_class is not ServiceClass.RTPS:
                continue
            for p in result.history[s.cid]:
                if p.departure_time is not None:
                    if p.departure_time - p.arrival_time > 20.0:
                        n += 1
        return n

    assert late_deliveries(kept) > 0
    assert late_deliveries(dropped) == 0
    drops = sum(
        1 for s in dropped.conns for p in dropped.history[s.cid] if p.dropped
    )
    assert drops > 0
    # conservation still holds with drops excluded from backlog
    for s in dropped.conns:
        hist = dropped.history[s.cid]
        arrived = sum(p.size for p in hist)
        departed = sum(p.size for p in hist if p.departure_time is not None)
        lost = sum(p.size for p in hist if p.dropped)
        assert arrived == departed + lost + backlog(dropped, s.cid)


def test_drop_expired_keeps_a_packet_due_at_the_frames_end():
    # a CBR rtPS source's packet arrives at a frame's start and is granted
    # in the next frame, so it departs at its deadline, arrival plus the
    # 20 ms bound: it is on time, and drop-on-expiry keeps it
    model = TrafficModel(TrafficKind.CBR, 256.0, 320, 320)
    scenario = Scenario(frame=frame(),
                        conns=(spec(0, ServiceClass.RTPS, model=model),))
    for mode in SimMode:
        log = run(scenario, mode, 50, drop_expired=True).logs[0]
        assert [d - a for d, a in zip(log.departure, log.arrival)] == [20.0] * 49, mode


def test_be_flows_only_through_station_scheduler_vs_strict_priority():
    # saturating nrtPS load: the deficit round keeps BE alive, strict
    # priority starves it
    specs = []
    for ss in range(2):
        specs.append(spec(ss * 2, ServiceClass.NRTPS, ss=ss, model=TrafficModel(
            TrafficKind.POISSON, 3000.0, 1250, 1250)))
        specs.append(spec(ss * 2 + 1, ServiceClass.BE, ss=ss, model=TrafficModel(
            TrafficKind.POISSON, 512.0, 64, 1250)))
    scenario = Scenario(frame=frame(capacity=5375), conns=tuple(specs))

    def be_delivered(result):
        return sum(
            p.size
            for s in result.conns if s.service_class is ServiceClass.BE
            for p in result.history[s.cid]
            if p.departure_time is not None and p.departure_time >= 500.0
        )

    ss1 = run(scenario, SimMode.SS1, 2000, seed=1)
    ss2 = run(scenario, SimMode.SS2, 2000, seed=1)
    assert be_delivered(ss1) > 0
    assert be_delivered(ss2) == 0


def test_finished_run_keeps_packets_as_columns():
    # a finished run retains about the 24 bytes of its three log columns
    # per generated packet
    scenario = baseline_scenario()
    for mode in SimMode:
        for drop_expired in (False, True):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = run(scenario, mode, 500, seed=1, rho=1.2,
                             drop_expired=drop_expired)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            packets = sum(len(h) for h in result.history.values())
            assert retained / packets <= 32, (mode, drop_expired, retained,
                                               packets)


def test_an_overloaded_run_peaks_at_its_columns():
    # a queue is a row range of its log, so a gpc cell whose backlog holds
    # most of its packets at the end peaks at about its columns: 16 B of
    # stream, 8 B of departure and, for an elastic packet, 8 B of prefix sum
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(baseline_scenario(), SimMode.GPC, 2000, seed=1, rho=3.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    packets = sum(len(log.size) for log in result.logs.values())
    queued = packets - sum(len(log.departure) for log in result.logs.values())
    assert queued > packets // 2
    assert peak / packets <= 40, (peak, packets)


def test_a_run_builds_no_packet_objects(monkeypatch):
    # the frame loop reads and writes log rows only; a Packet is built only
    # for a caller that asks for one, as the history view does
    built = 0
    init = Packet.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting)
    scenario = baseline_scenario()
    for mode in SimMode:
        for drop_expired in (False, True):
            result = run(scenario, mode, 300, seed=2, rho=1.4,
                         drop_expired=drop_expired)
            assert built == 0, (mode, drop_expired)
    # the counter sees the packets that are built
    packets = sum(len(view) for view in result.history.values())
    assert built == packets > 0


def test_history_view_rebuilds_every_generated_packet(monkeypatch):
    generated = {}
    generate = TrafficSource.generate

    def recording(source, frame_index):
        pkts = generate(source, frame_index)
        generated.setdefault(source.conn.cid, []).extend(
            (p.size, p.arrival_time) for p in pkts)
        return pkts

    monkeypatch.setattr(TrafficSource, "generate", recording)
    scenario = baseline_scenario()
    states = {"sent": 0, "dropped": 0, "queued": 0}
    for mode in SimMode:
        for drop_expired in (False, True):
            generated.clear()
            result = run(scenario, mode, 300, seed=2, rho=1.4,
                         drop_expired=drop_expired)
            for s in result.conns:
                view = result.history[s.cid]
                assert view is result.history[s.cid]
                assert [(p.size, p.arrival_time)
                        for p in view] == generated.get(s.cid, [])
                queued = [p for p in view
                          if p.departure_time is None and not p.dropped]
                assert backlog(result, s.cid) == sum(p.size for p in queued)
                states["sent"] += sum(p.departure_time is not None for p in view)
                states["dropped"] += sum(p.dropped for p in view)
                states["queued"] += len(queued)
    assert all(states.values()), states


def test_frames_without_arrivals_are_not_handed_out(monkeypatch):
    batches = []
    generate = TrafficSource.generate

    def recording(source, frame_index):
        pkts = generate(source, frame_index)
        batches.append(len(pkts))
        return pkts

    monkeypatch.setattr(TrafficSource, "generate", recording)
    scenario = baseline_scenario()
    record = draw_streams(scenario, 300, seed=2, rho=1.4)
    arriving = sum(1 for s in record.streams for n in s.counts if n)
    for mode in SimMode:
        batches.clear()
        run(scenario, mode, 300, seed=2, rho=1.4, streams=record)
        assert len(batches) == arriving, mode
        assert all(batches), mode
    # some frames of some connection have no arrivals
    assert arriving < 300 * len(record.streams)


def test_streams_drawn_for_another_frame_count_are_refused():
    scenario = baseline_scenario()
    for drawn in (50, 5):
        record = draw_streams(scenario, drawn, 1, 1.0)
        message = "^streams drawn for another frame count$"
        with pytest.raises(ValueError, match=message):
            Simulation(scenario, SimMode.SS1, 10, seed=1, streams=record)
        with pytest.raises(ValueError, match=message):
            run(scenario, SimMode.SS1, 10, seed=1, streams=record)
    # the matrix draws each stream for its own frame count
    cfg = replace(baseline_config(), frames=20, seeds=(1, 2), rhos=(0.4, 1.2),
                  modes=tuple(SimMode))
    results, errors = run_matrix(cfg)
    assert not errors and len(results) == 12


def test_streams_drawn_for_another_cell_are_refused(monkeypatch):
    scenario = baseline_scenario()
    # the same connections on 20 ms frames: each arrival at twice the time
    slow = replace(scenario, frame=replace(scenario.frame, frame_duration_ms=20.0))
    records = [(draw_streams(scenario, 10, 2, 1.0), "seed"),
               (draw_streams(scenario, 10, 1, 1.3), "rho"),
               (draw_streams(slow, 10, 1, 1.0), "scenario")]
    monkeypatch.setattr(Simulation, "step", None)  # refused before any step
    for record, part in records:
        message = f"^streams drawn for another {part}$"
        with pytest.raises(ValueError, match=message):
            Simulation(scenario, SimMode.SS1, 10, seed=1, streams=record)
        with pytest.raises(ValueError, match=message):
            run(scenario, SimMode.SS1, 10, seed=1, streams=record)


def test_each_stream_is_drawn_for_its_own_connection():
    # cids 1 and 5 are both rtPS with the default on/off source, but each
    # stream sits at its own connection's position, drawn for its cid
    scenario = baseline_scenario()
    record = draw_streams(scenario, 300, 1, 1.0)
    assert record.cell == (scenario, 300, 1, 1.0)
    assert [len(s.size) for s in record.streams[1:6:4]] == [682, 493]
    for spec, stream in zip(scenario.conns, record.streams):
        assert stream == draw_stream(spec, spec.traffic, scenario.frame, 1.0, 1, 300)


@pytest.mark.parametrize("mode", list(SimMode))
def test_logs_are_complete_at_every_frame_boundary(mode):
    # a log holds its whole stream from the start, so between frames each
    # log's rows from its departures up to the packets arrived so far are
    # exactly its queue, and each elastic request is their bytes; each
    # frame's exits depart at its end or are dropped (NaN), so the finite
    # departures never decrease
    scenario = baseline_scenario()
    record = draw_streams(scenario, 300, seed=4, rho=1.4)
    counts = {spec.cid: s.counts for spec, s in zip(scenario.conns, record.streams)}
    for drop_expired in (False, True):
        sim = Simulation(scenario, mode, 300, seed=4, rho=1.4,
                         drop_expired=drop_expired, streams=record)
        requests = {req.cid: req for req in sim.requests}
        arrived = dict.fromkeys(counts, 0)
        exited = dict.fromkeys(counts, 0)
        requested = 0
        for fr in range(300):
            sim.step()
            frame_end = (fr + 1) * scenario.frame.frame_duration_ms
            for spec in scenario.conns:
                cid = spec.cid
                log = sim.logs[cid]
                assert all(d == frame_end or math.isnan(d)
                           for d in log.departure[exited[cid]:])
                exited[cid] = len(log.departure)
                arrived[cid] += counts[cid][fr]
                head, end = len(log.departure), arrived[cid]
                assert log.arrived == end
                assert list(zip(log.size[head:end], log.arrival[head:end])) == [
                    (p.size, p.arrival_time) for p in queued_packets(log)]
                if spec.service_class is not ServiceClass.UGS:
                    assert requests[cid].requested_bytes == sum(log.size[head:end])
                    requested += requests[cid].requested_bytes
        assert requested
        assert all(arrived[cid] == len(log.size) for cid, log in sim.logs.items())


@pytest.mark.parametrize("mode", list(SimMode))
def test_every_reader_shares_the_cells_queues(mode):
    # the feeds, the elastic requests' rows, the rtPS drop rows, the gpc
    # drain and every station triple hold the very ``PacketLog``s of
    # ``sim.logs``, whose rows are the queues, each at its own cid; checked
    # after a run, so a reader that rebinds a log shows too
    scenario = baseline_scenario()
    sim = Simulation(scenario, mode, 50, seed=1, rho=1.4, drop_expired=True)
    for _ in range(50):
        sim.step()
    cids = [s.cid for s in scenario.conns]
    logs = list(sim.logs.values())
    assert len(logs) == len({id(log) for log in logs}) == len(cids)
    log_of = sim.logs

    def shares(cids, logs):
        return len(cids) == len(logs) and all(
            log is log_of[cid] for cid, log in zip(cids, logs))

    assert [source.conn.cid for _, _, source in sim._feeds] == cids
    assert shares(cids, [log for log, _, _ in sim._feeds])
    assert shares([req.cid for req, _, _ in sim._elastic],
                  [log for _, _, log in sim._elastic])
    rtps = [s for s in scenario.conns if s.service_class is ServiceClass.RTPS]
    assert [bound for _, bound in sim._rtps] == [s.qos.max_latency_ms
                                                 for s in rtps]
    assert shares([s.cid for s in rtps], [log for log, _ in sim._rtps])
    # the gpc drain reads ``sim.logs`` in the plan's cid order
    assert list(sim.plan.cids) == list(sim.logs) == cids
    stationed = []
    for station in sim._stations.values():
        for group_cids, group_logs, _ in (station.ugs, station.rtps,
                                          *station.priority):
            assert shares(group_cids, group_logs)
        assert shares(station.drr_cids, station.drr_logs)
        stationed += [cid for group_cids, _, _ in station.priority
                      for cid in group_cids]
    assert sorted(stationed) == cids


def log_bytes(result):
    return {cid: (log.size.tobytes(), log.arrival.tobytes(),
                  log.departure.tobytes())
            for cid, log in result.logs.items()}


@pytest.mark.parametrize("drop_expired", [False, True])
def test_given_streams_run_as_drawn_streams(drop_expired):
    scenario = baseline_scenario()
    dropped = False
    for mode in SimMode:
        drawn = run(scenario, mode, 300, seed=2, rho=1.4,
                    drop_expired=drop_expired)
        given = run(scenario, mode, 300, seed=2, rho=1.4,
                    drop_expired=drop_expired,
                    streams=draw_streams(scenario, 300, seed=2, rho=1.4))
        assert log_bytes(given) == log_bytes(drawn), mode
        assert (given.granted, given.used) == (drawn.granted, drawn.used)
        dropped |= any(math.isnan(d) for log in given.logs.values()
                       for d in log.departure)
    assert dropped == drop_expired


def test_modes_of_a_matrix_share_one_copy_of_each_stream():
    # a stream's size and arrival columns cost 16 B a packet once, for all
    # three modes, and each mode's own departures 8 B more: 40 B per packet
    # of one stream, 48 with the columns' spare capacity, where a copy of
    # the columns for each later mode took 81
    cfg = replace(baseline_config(), frames=500, seeds=(1,), rhos=(1.2,),
                  modes=tuple(SimMode))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results, errors = run_matrix(cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not errors and len(results) == 3
    packets = sum(len(log.size) for log in results[(SimMode.SS1, 1, 1.2)]
                  .logs.values())
    assert retained / packets <= 56, (retained, packets)
