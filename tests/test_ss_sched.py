from copy import deepcopy

import pytest

from conftest import frame, make_conn, rtps_conn
from reference import queued_packets, sent_packets
from uplinksim._kernels_py import edf_take
from uplinksim.engine import Scenario
from uplinksim.model import ServiceClass
from uplinksim.ss_sched import (
    Station,
    dfpq_round,
    schedule_frame_ss1,
    schedule_frame_ss2,
    serve_rtps_edf,
    serve_ugs,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# the end of the frame every schedule here sends in
FRAME_END = 10.0


def station_for(conns, quanta=None):
    """Station over ``conns``, (spec, log) pairs, whose deficit round uses
    the ``quanta`` given by cid in place of those its scenario keeps.  A
    quantum does not depend on the capacity, so the scenario's is one that
    every station a test draws fits."""
    specs, logs = zip(*conns)
    scenario = Scenario(frame(capacity=2**31), specs)
    by_cid = dict(zip((s.cid for s in scenario.conns), scenario.quanta))
    by_cid.update(quanta or {})
    return Station(specs, logs, [by_cid[s.cid] for s in specs])


def snapshot(conns):
    """cid -> its queued packets, for ``sent_packets``."""
    return {s.cid: queued_packets(log) for s, log in conns}


def edf_lists(conns):
    """The (cids, logs, bounds) of ``conns``, (spec, log) pairs, in the
    order given, with the bounds a Station gives them: 0.0 for UGS and the
    connection's ``max_latency_ms`` for rtPS."""
    return ([s.cid for s, _ in conns], [log for _, log in conns],
            [s.qos.max_latency_ms or 0.0 for s, _ in conns])


# --- UGS phase ---------------------------------------------------------------

def test_serve_ugs_basic_and_budget_decrement():
    conn = make_conn(1, ServiceClass.UGS, sizes=[320])
    before = snapshot([conn])
    sent, used = serve_ugs(edf_lists([conn]), 5375, FRAME_END)
    assert [(cid, p.size) for cid, p in sent_packets(sent, before)] == [(1, 320)]
    assert used == 320


def test_serve_ugs_empty_queues():
    conn = make_conn(1, ServiceClass.UGS)
    assert serve_ugs(edf_lists([conn]), 100, FRAME_END) == ([], 0)


def test_serve_ugs_never_splits_a_packet():
    conn = make_conn(1, ServiceClass.UGS, sizes=[400])
    assert serve_ugs(edf_lists([conn]), 399, FRAME_END) == ([], 0)
    assert len(queued_packets(conn[1])) == 1


def test_serve_ugs_global_arrival_order_with_cid_ties():
    a = make_conn(2, ServiceClass.UGS, sizes=[10, 10], arrivals=[0.0, 5.0])
    b = make_conn(1, ServiceClass.UGS, sizes=[10], arrivals=[0.0])
    sent, _ = serve_ugs(edf_lists([a, b]), 100, FRAME_END)
    assert sent == [1, 2, 2]


# --- rtPS EDF phase ----------------------------------------------------------

def test_edf_orders_by_deadline():
    a = rtps_conn(1, 120.0, sizes=[100, 100], arrivals=[0.0, 10.0])
    b = rtps_conn(2, 94.5, sizes=[100], arrivals=[0.5])
    before = snapshot([a, b])
    sent, _ = serve_rtps_edf(edf_lists([a, b]), 1000, FRAME_END)
    assert [(cid, p.arrival_time) for cid, p in sent_packets(sent, before)] == [
        (2, 0.5), (1, 0.0), (1, 10.0),  # deadlines 95, 120 and 130
    ]


def test_edf_derives_each_deadline_from_its_connections_bound():
    # the later arrivals on the tighter bound go first: deadlines 15 and 25
    # against 30 and 31, also once each queue's next head is keyed
    loose = rtps_conn(1, 30.0, sizes=[100, 100], arrivals=[0.0, 1.0])
    tight = rtps_conn(2, 5.0, sizes=[100, 100], arrivals=[10.0, 20.0])
    before = snapshot([loose, tight])
    sent, used = serve_rtps_edf(edf_lists([loose, tight]), 1000, FRAME_END)
    assert [(cid, p.arrival_time) for cid, p in sent_packets(sent, before)] == [
        (2, 10.0), (2, 20.0), (1, 0.0), (1, 1.0),
    ]
    assert used == 400


def test_edf_tie_breaks_on_arrival_then_cid():
    # equal deadlines of 100 ms
    a = rtps_conn(1, 97.0, sizes=[50], arrivals=[3.0])
    b = rtps_conn(2, 99.0, sizes=[50], arrivals=[1.0])
    sent, _ = serve_rtps_edf(edf_lists([a, b]), 1000, FRAME_END)
    assert sent == [2, 1]

    c = rtps_conn(3, 99.0, sizes=[50], arrivals=[1.0])
    d = rtps_conn(4, 99.0, sizes=[50], arrivals=[1.0])
    sent, _ = serve_rtps_edf(edf_lists([d, c]), 1000, FRAME_END)
    assert sent == [3, 4]


def test_edf_stops_at_first_nonfitting_candidate():
    # the most urgent packet is too big: the whole phase ends, even though
    # the later packet would fit
    a = rtps_conn(1, 10.0, sizes=[500, 50], arrivals=[0.0, 1.0])
    assert serve_rtps_edf(edf_lists([a]), 499, FRAME_END) == ([], 0)
    assert len(queued_packets(a[1])) == 2


# --- DFPQ phase --------------------------------------------------------------

def test_dfpq_two_visits_then_reset_on_empty():
    conn = make_conn(1, ServiceClass.NRTPS, sizes=[300, 300])
    station = station_for([conn], quanta={1: 500})
    before = snapshot([conn])
    sent, used = dfpq_round(station, 10_000, FRAME_END)
    # visit 1: counter 500, send 300 (200 left, next 300 too big);
    # visit 2: counter 700, send 300, queue drains, counter forfeited
    assert [p.size for _, p in sent_packets(sent, before)] == [300, 300]
    assert used == 600
    assert station.deficit == [0]
    assert not queued_packets(conn[1])


def test_dfpq_untouched_empty_queue_keeps_zero_counter():
    conn = make_conn(1, ServiceClass.NRTPS)
    station = station_for([conn])
    assert dfpq_round(station, 1000, FRAME_END) == ([], 0)
    assert station.deficit == [0]


def test_dfpq_counter_persists_for_backlogged_queue():
    conn = make_conn(1, ServiceClass.NRTPS, sizes=[300, 300])
    station = station_for([conn], quanta={1: 500})
    before = snapshot([conn])
    sent, used = dfpq_round(station, 300, FRAME_END)  # only room for one packet
    assert [p.size for _, p in sent_packets(sent, before)] == [300]
    assert station.deficit == [200]  # unspent credit carried, queue non-empty
    assert used == 300


def test_dfpq_nrtps_before_be_and_quantum_shares():
    nrtps = make_conn(1, ServiceClass.NRTPS, sizes=[1250] * 4)
    be = make_conn(2, ServiceClass.BE, sizes=[1250] * 4)
    station = station_for([nrtps, be])  # quanta 1280 / 320
    sent, _ = dfpq_round(station, 2500, FRAME_END)
    # BE's counter needs four rounds of credit for a 1250-byte packet, so the
    # scarce budget goes to nrtPS alone
    assert sent == [1, 1]
    nrtps2 = make_conn(1, ServiceClass.NRTPS, sizes=[1250] * 4)
    be2 = make_conn(2, ServiceClass.BE, sizes=[1250] * 4)
    sent2, _ = dfpq_round(station_for([nrtps2, be2]), 20_000, FRAME_END)
    # ample budget: everything drains; nrtPS finishes while BE still accrues
    assert sent2 == [1, 1, 1, 1, 2, 2, 2, 2]


def test_dfpq_long_run_fairness_equal_quanta():
    sizes = [100] * 2000
    a = make_conn(1, ServiceClass.NRTPS, sizes=sizes)
    b = make_conn(2, ServiceClass.NRTPS, sizes=sizes)
    station = station_for([a, b], quanta={1: 150, 2: 150})
    before = snapshot([a, b])
    order = []
    for _ in range(1000):
        order += dfpq_round(station, 300, FRAME_END)[0]
    sent = {1: 0, 2: 0}
    for cid, p in sent_packets(order, before):
        sent[cid] += p.size
    assert abs(sent[1] - sent[2]) <= 100  # within one packet


# --- full-frame schedules ----------------------------------------------------

def four_class_station(backlog=3):
    return [
        make_conn(1, ServiceClass.UGS, sizes=[320] * backlog),
        make_conn(2, ServiceClass.RTPS, sizes=[200] * backlog),
        make_conn(3, ServiceClass.NRTPS, sizes=[500] * backlog),
        make_conn(4, ServiceClass.BE, sizes=[100] * backlog),
    ]


def test_station_partitions_classes_once_in_cid_order():
    conns = [
        make_conn(9, ServiceClass.BE),
        make_conn(8, ServiceClass.NRTPS),
        make_conn(7, ServiceClass.BE),
        rtps_conn(6, 30.0),
        make_conn(5, ServiceClass.NRTPS),
        make_conn(4, ServiceClass.UGS),
        rtps_conn(3, 12.0),
    ]
    specs, logs = zip(*conns)
    # each quantum must follow its connection through the sort
    station = Station(specs, logs, [10 * s.cid for s in specs])
    log_of = {s.cid: log for s, log in conns}

    def holds(cids, logs):
        # each cid's own queue, the very log, in the same position
        return len(cids) == len(logs) and all(
            log is log_of[cid] for cid, log in zip(cids, logs))

    # ss2's FIFO triples: UGS, rtPS, nrtPS, BE, each by ascending cid
    assert [cids for cids, _, _ in station.priority] == [[4], [3, 6], [5, 8], [7, 9]]
    assert all(holds(cids, logs) and bounds == [0.0] * len(cids)
               for cids, logs, bounds in station.priority)
    assert station.ugs == station.priority[0]
    # ss1's rtPS triple holds the connections' own bounds
    assert station.rtps == (station.priority[1][0], station.priority[1][1],
                            [12.0, 30.0])
    assert station.drr_cids == [5, 8, 7, 9]  # nrtPS visited before BE
    assert holds(station.drr_cids, station.drr_logs)
    assert station.quantum == [50, 80, 70, 90]
    assert station.deficit == [0, 0, 0, 0]
    assert station.cursor == 0


def test_ss1_zero_grant_schedules_nothing():
    conns = four_class_station()
    tx = schedule_frame_ss1(station_for(conns), 0, FRAME_END)
    assert tx.entries == []
    assert tx.total_bytes == 0


def test_ss1_only_be_uses_reserved_rate_quantum():
    be = make_conn(9, ServiceClass.BE, sizes=[100] * 5)
    station = station_for([be])
    assert station.quantum == [320]  # one frame at the 256 kbit/s reserved rate
    before = snapshot([be])
    tx = schedule_frame_ss1(station, 5000, FRAME_END)
    assert [p.size for _, p in sent_packets(tx.entries, before)] == [100] * 5


def test_ss1_ample_grant_sends_everything_class_ordered():
    conns = four_class_station()
    before = snapshot(conns)
    tx = schedule_frame_ss1(station_for(conns), 50_000, FRAME_END)
    assert len(tx.entries) == 12
    # phase order: all UGS, then all rtPS, then the deficit round (which may
    # interleave nrtPS and BE)
    phase = {1: 0, 2: 1, 3: 2, 4: 2}
    ranks = [phase[cid] for cid in tx.entries]
    assert ranks == sorted(ranks)
    assert tx.total_bytes == sum(p.size for _, p in sent_packets(tx.entries, before))
    # every queued packet went out exactly once, whole
    assert not any(queued_packets(log) for _, log in conns)


CLASSES = (ServiceClass.UGS, ServiceClass.RTPS, ServiceClass.NRTPS,
           ServiceClass.BE)


def class_queues(max_size, max_packets):
    """One list of packet sizes per class in ``CLASSES`` order."""
    queue = st.lists(st.integers(1, max_size), max_size=max_packets)
    return st.tuples(*[queue] * len(CLASSES))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(queues=class_queues(1500, 6), grant=st.integers(0, 4000))
def test_ss1_budget_safety_random(queues, grant):
    conns = [make_conn(cid, cls, sizes=sizes)
             for cid, (cls, sizes) in enumerate(zip(CLASSES, queues), start=1)]
    queued_before = snapshot(conns)
    tx = schedule_frame_ss1(station_for(conns), grant, FRAME_END)
    sent = sent_packets(tx.entries, queued_before)
    assert tx.total_bytes <= grant
    assert tx.total_bytes == sum(p.size for _, p in sent)
    # no duplication, no fabrication: the packets sent are exactly the ones
    # that left each queue's head
    for cid, pkt in sent:
        assert pkt in queued_before[cid]
    counts = {}
    for _, pkt in sent:
        counts[id(pkt)] = counts.get(id(pkt), 0) + 1
    assert all(v == 1 for v in counts.values())
    for s, log in conns:
        assert (queued_packets(log)
                == queued_before[s.cid][tx.entries.count(s.cid):])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(queues=class_queues(1200, 5), grant=st.integers(0, 5000))
def test_ss1_weak_work_conservation(queues, grant):
    conns = [make_conn(cid, cls, sizes=sizes)
             for cid, (cls, sizes) in enumerate(zip(CLASSES, queues), start=1)]
    station = station_for(conns)
    tx = schedule_frame_ss1(station, grant, FRAME_END)
    deficit = dict(zip(station.drr_cids, station.deficit))
    leftover = grant - tx.total_bytes
    for s, log in conns:
        q = queued_packets(log)
        if not q:
            continue
        head = q[0].size
        if s.service_class in (ServiceClass.NRTPS, ServiceClass.BE):
            # head fitting both leftover and its current counter would
            # contradict round termination
            assert not (head <= leftover and head <= deficit[s.cid])


def test_ss2_starves_lower_classes_behind_backlog():
    conns = [
        make_conn(1, ServiceClass.NRTPS, sizes=[1000] * 10),
        make_conn(2, ServiceClass.BE, sizes=[50] * 10),
    ]
    tx = schedule_frame_ss2(station_for(conns), 3500, FRAME_END)
    assert tx.entries == [1, 1, 1]
    # 500 bytes leftover would fit BE heads, but strict priority blocks them
    assert tx.total_bytes == 3000
    assert len(queued_packets(conns[1][1])) == 10


def test_ss2_fifo_over_be_alone():
    be = make_conn(1, ServiceClass.BE, sizes=[10, 20, 30], arrivals=[0, 1, 2])
    before = snapshot([be])
    tx = schedule_frame_ss2(station_for([be]), 1000, FRAME_END)
    assert [p.size for _, p in sent_packets(tx.entries, before)] == [10, 20, 30]


def test_ss2_serves_rtps_in_arrival_order_whatever_the_deadlines():
    # deadlines 120 and 15: ss1's EDF sends cid 2 first, while strict
    # priority is FIFO inside the class and sends the earlier arrival first
    def rtps_pair():
        return [rtps_conn(1, 120.0, sizes=[100], arrivals=[0.0]),
                rtps_conn(2, 10.0, sizes=[100], arrivals=[5.0])]

    ss1 = schedule_frame_ss1(station_for(rtps_pair()), 1000, FRAME_END)
    ss2 = schedule_frame_ss2(station_for(rtps_pair()), 1000, FRAME_END)
    assert ss1.entries == [2, 1]
    assert ss2.entries == [1, 2]


def test_ss2_matches_ss1_packet_set_when_uncontended():
    conns1 = four_class_station()
    conns2 = four_class_station()
    before1, before2 = snapshot(conns1), snapshot(conns2)
    tx1 = schedule_frame_ss1(station_for(conns1), 50_000, FRAME_END)
    tx2 = schedule_frame_ss2(station_for(conns2), 50_000, FRAME_END)

    def key(tx, before):
        return sorted((cid, p.size, p.arrival_time)
                      for cid, p in sent_packets(tx.entries, before))

    assert key(tx1, before1) == key(tx2, before2)


# --- phases over empty queues ------------------------------------------------

@st.composite
def stations(draw):
    """A station with 1-3 connections per class, so the heap EDF and the
    multi-queue deficit round run; a class's queues are often all empty.
    Its counters, cursor (one the round itself could leave) and the grant
    are drawn too."""
    conns = []
    for cls in CLASSES:
        empty = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            sizes = [] if empty else draw(
                st.lists(st.integers(1, 1500), max_size=5))
            arrivals = sorted(draw(st.lists(st.integers(0, 30).map(float),
                                            min_size=len(sizes),
                                            max_size=len(sizes))))
            conns.append(make_conn(len(conns) + 1, cls, sizes=sizes,
                                   arrivals=arrivals))
    station = station_for(conns)
    station.deficit = draw(st.lists(st.integers(0, 2000),
                                    min_size=len(station.drr_cids),
                                    max_size=len(station.drr_cids)))
    station.cursor = draw(st.integers(0, len(station.drr_cids) - 1))
    return station, draw(st.integers(0, 8000))


# each phase the schedulers run, as (name, the logs of its queues, a call of
# it on a station and a budget): ss1's three, then ss2's four classes
PHASES = (
    ("ugs", lambda s: s.ugs[1], lambda s, b: serve_ugs(s.ugs, b, FRAME_END)),
    ("rtps", lambda s: s.rtps[1],
     lambda s, b: serve_rtps_edf(s.rtps, b, FRAME_END)),
    ("deficit round", lambda s: s.drr_logs,
     lambda s, b: dfpq_round(s, b, FRAME_END)),
    *((f"ss2 class {k}", lambda s, k=k: s.priority[k][1],
       lambda s, b, k=k: edf_take(*s.priority[k], b, FRAME_END))
      for k in range(4)),
)


def outcome(station):
    """Everything a phase can change on a station, in comparable form."""
    return ([(list(log.departure), log.arrived)
             for logs in (station.ugs[1], station.rtps[1], station.drr_logs)
             for log in logs],
            list(station.deficit), station.cursor)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stations())
def test_a_phase_over_empty_queues_sends_nothing_and_changes_nothing(instance):
    # the schedulers run every phase in every frame without asking whether
    # its class has anything queued, so on a class whose queues are all
    # empty each phase must be a no-op: no send, no log, deficit or cursor
    # change, whatever the counters, the cursor and the budget
    station, grant = instance
    for name, logs, call in PHASES:
        if any(queued_packets(log) for log in logs(station)):
            continue
        mine = deepcopy(station)
        assert call(mine, grant) == ([], 0), name
        assert outcome(mine) == outcome(station), name
