import math
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest

from conftest import QOS, frame
from perfbench.invariants import check_cell
from uplinksim.cli import run_matrix
from uplinksim.config import baseline_config, baseline_scenario
from uplinksim.engine import (
    ConnSpec,
    Scenario,
    ScenarioError,
    SimMode,
    Simulation,
    draw_streams,
    run,
)
from uplinksim.model import QosParams, ServiceClass
from uplinksim.traffic import TrafficKind, TrafficModel, TrafficSource


def cbr_scenario(rate_kbps=256.0, size=320, classes=(ServiceClass.NRTPS,),
                 capacity=5375, n_ss=1):
    """Small constant-rate scenario for timing-contract tests."""
    specs = []
    cid = 0
    for ss in range(n_ss):
        for cls in classes:
            specs.append(
                ConnSpec(
                    cid=cid, ss_id=ss, service_class=cls, qos=QOS[cls],
                    traffic=TrafficModel(TrafficKind.CBR, rate_kbps, size, size),
                )
            )
            cid += 1
    return Scenario(frame=frame(capacity=capacity), conns=tuple(specs))


def packet_key(result):
    return [
        (s.cid, p.size, p.arrival_time, p.departure_time, p.dropped)
        for s in result.conns
        for p in result.history[s.cid]
    ]


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
                ConnSpec(0, 0, ServiceClass.RTPS, QOS[ServiceClass.RTPS],
                         TrafficModel(TrafficKind.CBR, 64.0, 80, 80)),
            ),
        )

    # nor one with non-finite contracts or sources; non-finite intensities
    # fail before frame 0
    good = baseline_scenario()
    rtps = next(s for s in good.conns if s.service_class is ServiceClass.RTPS)
    nan, inf = float("nan"), float("inf")
    for spec in (replace(rtps, qos=replace(rtps.qos, weight=nan)),
                 replace(rtps, qos=replace(rtps.qos, min_reserved_kbps=inf)),
                 replace(rtps, traffic=replace(rtps.traffic, mean_rate_kbps=nan)),
                 replace(rtps, traffic=replace(rtps.traffic, mean_on_ms=inf))):
        with pytest.raises(ScenarioError):
            replace(good, conns=tuple(
                spec if s.cid == spec.cid else s for s in good.conns))
    for rho in (nan, inf):
        with pytest.raises(ValueError):
            Simulation(good, SimMode.SS1, 10, seed=1, rho=rho)


def test_packet_conservation_every_mode():
    # every invariant of check_cell: bytes conserved, exits a FIFO prefix,
    # departures at frame ends, used <= granted <= capacity and each
    # frame's departures summing to its used bytes
    scenario = baseline_scenario()
    for mode, drop in product(SimMode, (False, True)):
        result = run(scenario, mode, 300, seed=4, rho=1.2, drop_expired=drop)
        assert check_cell(result) == [], (mode, drop)
        # stricter than check_cell, which allows a departure at the instant
        # of its packet's arrival: here none departs that early
        for log in result.logs.values():
            assert all(dep > arr for dep, arr in zip(log.departure, log.arrival)
                       if not math.isnan(dep))


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


def test_mode_equivalence_single_connection_stations():
    # with one connection per station the pooled grant IS the per-connection
    # grant, so both modes must behave identically frame by frame
    scenario = cbr_scenario(rate_kbps=128.0, size=160,
                            classes=(ServiceClass.NRTPS,), n_ss=3)
    a = run(scenario, SimMode.SS1, 200, seed=5)
    b = run(scenario, SimMode.GPC, 200, seed=5)
    assert packet_key(a) == packet_key(b)


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
    # hand-built frame: cid 0 holds packets but requested nothing, cid 1
    # holds a grant-sized request but no packets; per-connection grants
    # cannot be borrowed, the pooled scheduler reuses them freely
    specs = (
        ConnSpec(0, 0, ServiceClass.NRTPS, QOS[ServiceClass.NRTPS],
                 TrafficModel(TrafficKind.CBR, 512.0, 640, 640)),
        ConnSpec(1, 0, ServiceClass.NRTPS, QOS[ServiceClass.NRTPS],
                 TrafficModel(TrafficKind.CBR, 512.0, 640, 640)),
    )
    scenario = Scenario(frame=frame(capacity=5375), conns=specs)

    from uplinksim.model import Packet

    def prepared(mode):
        sim = Simulation(scenario, mode, 1, seed=1, rho=0.0)  # no traffic
        for k in range(2):
            pkt = Packet(size=640, arrival_time=-10.0 + k)
            sim.connections[0].queue.append(pkt)
            sim._backlog[0] += 640
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
        assert arrived == departed + lost + dropped.backlog(s.cid)


def test_be_flows_only_through_station_scheduler_vs_strict_priority():
    # saturating nrtPS load: the deficit round keeps BE alive, strict
    # priority starves it
    specs = []
    for ss in range(2):
        specs.append(ConnSpec(ss * 2, ss, ServiceClass.NRTPS,
                              QOS[ServiceClass.NRTPS],
                              TrafficModel(TrafficKind.POISSON, 3000.0,
                                           1250, 1250)))
        specs.append(ConnSpec(ss * 2 + 1, ss, ServiceClass.BE,
                              QOS[ServiceClass.BE],
                              TrafficModel(TrafficKind.POISSON, 512.0,
                                           64, 1250)))
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
    # no Packet object outlives its queue: a finished run retains about the
    # 24 bytes of its three log columns per generated packet
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
                assert result.backlog(s.cid) == sum(p.size for p in queued)
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
    streams = draw_streams(scenario, 300, seed=2, rho=1.4)
    arriving = sum(1 for s in streams.values() for n in s.counts if n)
    for mode in SimMode:
        batches.clear()
        run(scenario, mode, 300, seed=2, rho=1.4, streams=streams)
        assert len(batches) == arriving, mode
        assert all(batches), mode
    # some frames of some connection have no arrivals
    assert arriving < 300 * len(streams)


def test_streams_drawn_for_another_frame_count_are_refused():
    scenario = baseline_scenario()
    for drawn in (50, 5):
        streams = draw_streams(scenario, drawn, 1, 1.0)
        message = f"cid 0: stream drawn for {drawn} frames, run has 10"
        with pytest.raises(ValueError, match=message):
            Simulation(scenario, SimMode.SS1, 10, seed=1, streams=streams)
        with pytest.raises(ValueError, match=message):
            run(scenario, SimMode.SS1, 10, seed=1, streams=streams)
    # the matrix draws each stream for its own frame count
    cfg = replace(baseline_config(), frames=20, seeds=(1, 2), rhos=(0.4, 1.2),
                  modes=tuple(SimMode))
    results, errors = run_matrix(cfg)
    assert not errors and len(results) == 12


def test_streams_drawn_for_another_cell_are_refused():
    scenario = baseline_scenario()
    other_seed = draw_streams(scenario, 10, 2, 1.0)
    other_rho = draw_streams(scenario, 10, 1, 1.3)
    missing = draw_streams(scenario, 10, 1, 1.0)
    del missing[3]
    extra = {**draw_streams(scenario, 10, 1, 1.0), 99: other_seed[0]}
    swapped = {**draw_streams(scenario, 10, 1, 1.0), 0: other_rho[1]}
    for streams, message in (
        (other_seed, "cid 0: stream drawn for seed 2, rho 1.0, run has seed 1, rho 1.0"),
        (other_rho, "cid 0: stream drawn for seed 1, rho 1.3, run has seed 1, rho 1.0"),
        (missing, "cid 3: no stream given"),
        (extra, "cid 99: no such connection"),
        (swapped, "cid 0: stream drawn for another traffic model"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Simulation(scenario, SimMode.SS1, 10, seed=1, streams=streams)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(scenario, SimMode.SS1, 10, seed=1, streams=streams)


@pytest.mark.parametrize("mode", [SimMode.SS1, SimMode.GPC])
def test_logs_are_complete_at_every_frame_boundary(mode):
    # a log holds its whole stream from the start, so between frames each
    # log's rows from its departures up to the packets arrived so far are
    # exactly the live queue and its backlog; each frame's exits depart at
    # its end or are dropped (NaN), so the finite departures never decrease
    scenario = baseline_scenario()
    streams = draw_streams(scenario, 300, seed=4, rho=1.4)
    sim = Simulation(scenario, mode, 300, seed=4, rho=1.4, drop_expired=True,
                     streams=streams)
    arrived = dict.fromkeys(streams, 0)
    exited = dict.fromkeys(streams, 0)
    for fr in range(300):
        sim.step()
        frame_end = (fr + 1) * scenario.frame.frame_duration_ms
        for conn in sim.connections:
            log = sim.logs[conn.cid]
            assert all(d == frame_end or math.isnan(d)
                       for d in log.departure[exited[conn.cid]:])
            exited[conn.cid] = len(log.departure)
            arrived[conn.cid] += streams[conn.cid].counts[fr]
            head, end = len(log.departure), arrived[conn.cid]
            assert sum(log.size[head:end]) == sim._backlog[conn.cid]
            assert list(zip(log.size[head:end], log.arrival[head:end])) == [
                (p.size, p.arrival_time) for p in conn.queue]
    assert any(sim._backlog.values())
    assert all(arrived[cid] == len(log.size) for cid, log in sim.logs.items())


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
