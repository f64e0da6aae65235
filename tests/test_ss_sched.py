import random

from conftest import frame, make_conn
from reference import max_lateness, min_max_lateness, reference_dfpq, reference_edf
from uplinksim._kernels_py import dfpq_take, edf_take
from uplinksim.model import ServiceClass
from uplinksim.ss_sched import (
    DfpqState,
    FrameBudget,
    Station,
    dfpq_round,
    quantum_for,
    schedule_frame_ss1,
    schedule_frame_ss2,
    serve_rtps_edf,
    serve_ugs,
)


def state_for(conns, quanta=None, deficits=None, cursor=0):
    """Deficit-round state aligned with ``conns``; ``quanta`` and
    ``deficits`` override the defaults by cid."""
    return DfpqState(
        quantum=[(quanta or {}).get(c.cid, quantum_for(c, frame())) for c in conns],
        deficit=[(deficits or {}).get(c.cid, 0) for c in conns],
        cursor=cursor,
    )


# --- UGS phase ---------------------------------------------------------------

def test_serve_ugs_basic_and_budget_decrement():
    conn = make_conn(1, ServiceClass.UGS, sizes=[320])
    budget = FrameBudget(total=5375)
    entries = serve_ugs([conn], budget)
    assert [(cid, p.size) for cid, p in entries] == [(1, 320)]
    assert budget.running == 5055


def test_serve_ugs_empty_queues():
    conn = make_conn(1, ServiceClass.UGS)
    budget = FrameBudget(total=100)
    assert serve_ugs([conn], budget) == []
    assert budget.running == 100


def test_serve_ugs_never_splits_a_packet():
    conn = make_conn(1, ServiceClass.UGS, sizes=[400])
    budget = FrameBudget(total=399)
    assert serve_ugs([conn], budget) == []
    assert len(conn.queue) == 1
    assert budget.running == 399


def test_serve_ugs_global_arrival_order_with_cid_ties():
    a = make_conn(2, ServiceClass.UGS, sizes=[10, 10], arrivals=[0.0, 5.0])
    b = make_conn(1, ServiceClass.UGS, sizes=[10], arrivals=[0.0])
    entries = serve_ugs([a, b], FrameBudget(total=100))
    assert [cid for cid, _ in entries] == [1, 2, 2]


# --- rtPS EDF phase ----------------------------------------------------------

def test_edf_orders_by_deadline():
    a = make_conn(1, ServiceClass.RTPS, sizes=[100, 100],
                  arrivals=[0.0, 1.0], deadlines=[120.0, 130.0])
    b = make_conn(2, ServiceClass.RTPS, sizes=[100],
                  arrivals=[0.5], deadlines=[95.0])
    entries = serve_rtps_edf([a, b], FrameBudget(total=1000))
    assert [(cid, p.deadline) for cid, p in entries] == [
        (2, 95.0), (1, 120.0), (1, 130.0),
    ]


def test_edf_tie_breaks_on_arrival_then_cid():
    a = make_conn(1, ServiceClass.RTPS, sizes=[50], arrivals=[3.0],
                  deadlines=[100.0])
    b = make_conn(2, ServiceClass.RTPS, sizes=[50], arrivals=[1.0],
                  deadlines=[100.0])
    entries = serve_rtps_edf([a, b], FrameBudget(total=1000))
    assert [cid for cid, _ in entries] == [2, 1]

    c = make_conn(3, ServiceClass.RTPS, sizes=[50], arrivals=[1.0],
                  deadlines=[100.0])
    d = make_conn(4, ServiceClass.RTPS, sizes=[50], arrivals=[1.0],
                  deadlines=[100.0])
    entries = serve_rtps_edf([d, c], FrameBudget(total=1000))
    assert [cid for cid, _ in entries] == [3, 4]


def test_edf_stops_at_first_nonfitting_candidate():
    # the most urgent packet is too big: the whole phase ends, even though
    # the later packet would fit
    a = make_conn(1, ServiceClass.RTPS, sizes=[500, 50],
                  arrivals=[0.0, 1.0], deadlines=[10.0, 99.0])
    budget = FrameBudget(total=499)
    assert serve_rtps_edf([a], budget) == []
    assert budget.running == 499
    assert len(a.queue) == 2


def test_edf_minimizes_max_lateness_small_sets():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 6)
        packets = [(rng.randint(1, 50), float(rng.randint(1, 120)))
                   for _ in range(n)]
        conns = [
            make_conn(k, ServiceClass.RTPS, sizes=[size], arrivals=[0.0],
                      deadlines=[deadline])
            for k, (size, deadline) in enumerate(packets)
        ]
        entries = serve_rtps_edf(conns, FrameBudget(total=10_000))
        got = max_lateness([(p.size, p.deadline) for _, p in entries])
        assert got == min_max_lateness(packets)


# --- DFPQ phase --------------------------------------------------------------

def test_dfpq_two_visits_then_reset_on_empty():
    conn = make_conn(1, ServiceClass.NRTPS, sizes=[300, 300])
    st = state_for([conn], quanta={1: 500})
    budget = FrameBudget(total=10_000)
    entries = dfpq_round([conn], st, budget)
    # visit 1: counter 500, send 300 (200 left, next 300 too big);
    # visit 2: counter 700, send 300, queue drains, counter forfeited
    assert [p.size for _, p in entries] == [300, 300]
    assert st.deficit == [0]
    assert not conn.queue


def test_dfpq_untouched_empty_queue_keeps_zero_counter():
    conn = make_conn(1, ServiceClass.NRTPS)
    st = state_for([conn])
    assert dfpq_round([conn], st, FrameBudget(total=1000)) == []
    assert st.deficit == [0]


def test_dfpq_counter_persists_for_backlogged_queue():
    conn = make_conn(1, ServiceClass.NRTPS, sizes=[300, 300])
    st = state_for([conn], quanta={1: 500})
    budget = FrameBudget(total=300)  # only room for one packet
    entries = dfpq_round([conn], st, budget)
    assert [p.size for _, p in entries] == [300]
    assert st.deficit == [200]  # unspent credit carried, queue non-empty
    assert budget.running == 0


def test_dfpq_nrtps_before_be_and_quantum_shares():
    nrtps = make_conn(1, ServiceClass.NRTPS, sizes=[1250] * 4)
    be = make_conn(2, ServiceClass.BE, sizes=[1250] * 4)
    st = state_for([nrtps, be])  # quanta 1280 / 320
    budget = FrameBudget(total=2500)
    entries = dfpq_round([nrtps, be], st, budget)
    # BE's counter needs four rounds of credit for a 1250-byte packet, so the
    # scarce budget goes to nrtPS alone
    assert [cid for cid, _ in entries] == [1, 1]
    nrtps2 = make_conn(1, ServiceClass.NRTPS, sizes=[1250] * 4)
    be2 = make_conn(2, ServiceClass.BE, sizes=[1250] * 4)
    st2 = state_for([nrtps2, be2])
    budget2 = FrameBudget(total=20_000)
    entries2 = dfpq_round([nrtps2, be2], st2, budget2)
    # ample budget: everything drains; nrtPS finishes while BE still accrues
    assert [cid for cid, _ in entries2] == [1, 1, 1, 1, 2, 2, 2, 2]


def test_dfpq_long_run_fairness_equal_quanta():
    sizes = [100] * 2000
    a = make_conn(1, ServiceClass.NRTPS, sizes=sizes)
    b = make_conn(2, ServiceClass.NRTPS, sizes=sizes)
    st = state_for([a, b], quanta={1: 150, 2: 150})
    sent = {1: 0, 2: 0}
    for _ in range(1000):
        budget = FrameBudget(total=300)
        for cid, p in dfpq_round([a, b], st, budget):
            sent[cid] += p.size
    assert abs(sent[1] - sent[2]) <= 100  # within one packet


def test_dfpq_matches_reference_simulator():
    rng = random.Random(1234)
    for _ in range(1200):
        nq = rng.randint(1, 3)
        queues = [
            [rng.randint(1, 40) for _ in range(rng.randint(0, 10))]
            for _ in range(nq)
        ]
        quanta = [rng.randint(1, 50) for _ in range(nq)]
        deficits = [rng.randint(0, 30) if queues[q] else 0 for q in range(nq)]
        cursor = rng.randint(0, nq - 1)
        budget = rng.randint(0, 150)

        conns = []
        for q in range(nq):
            conns.append(make_conn(q, ServiceClass.NRTPS, sizes=queues[q]))
        st = state_for(conns, quanta=dict(enumerate(quanta)),
                       deficits=dict(enumerate(deficits)), cursor=cursor)
        fb = FrameBudget(total=budget)
        entries = dfpq_round(conns, st, fb)

        ref_sent, ref_dc, ref_cursor, ref_used = reference_dfpq(
            queues, quanta, deficits, cursor, budget
        )
        assert [cid for cid, _ in entries] == ref_sent
        assert [st.deficit[q] for q in range(nq)] == ref_dc
        assert st.cursor == ref_cursor
        assert budget - fb.running == ref_used
        # counter invariants: non-negative, zero on drained queues
        for q in range(nq):
            assert st.deficit[q] >= 0
            if not conns[q].queue:
                assert st.deficit[q] == 0


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
        make_conn(6, ServiceClass.RTPS),
        make_conn(5, ServiceClass.NRTPS),
        make_conn(4, ServiceClass.UGS),
        make_conn(3, ServiceClass.RTPS),
    ]
    station = Station(conns, frame())

    def cids(group):
        return [c.cid for c in group]

    assert cids(station.ugs) == [4]
    assert cids(station.rtps) == [3, 6]
    assert cids(station.nrtps) == [5, 8]
    assert cids(station.be) == [7, 9]
    assert cids(station.drr) == [5, 8, 7, 9]  # nrtPS visited before BE
    assert station.dfpq.quantum == [1280, 1280, 320, 320]
    assert station.dfpq.deficit == [0, 0, 0, 0]
    assert station.dfpq.cursor == 0


def test_ss1_zero_grant_schedules_nothing():
    conns = four_class_station()
    tx = schedule_frame_ss1(Station(conns, frame()), 0)
    assert tx.entries == []
    assert tx.total_bytes == 0


def test_ss1_only_be_uses_reserved_rate_quantum():
    be = make_conn(9, ServiceClass.BE, sizes=[100] * 5)
    station = Station([be], frame())
    assert station.dfpq.quantum == [320]  # one frame at the 256 kbit/s reserved rate
    tx = schedule_frame_ss1(station, 5000)
    assert [p.size for _, p in tx.entries] == [100] * 5


def test_ss1_ample_grant_sends_everything_class_ordered():
    conns = four_class_station()
    tx = schedule_frame_ss1(Station(conns, frame()), 50_000)
    assert len(tx.entries) == 12
    # phase order: all UGS, then all rtPS, then the deficit round (which may
    # interleave nrtPS and BE)
    phase = {1: 0, 2: 1, 3: 2, 4: 2}
    ranks = [phase[cid] for cid, _ in tx.entries]
    assert ranks == sorted(ranks)
    assert tx.total_bytes == sum(p.size for _, p in tx.entries)
    # every queued packet went out exactly once, whole
    assert all(not c.queue for c in conns)


def test_ss1_budget_safety_random():
    rng = random.Random(9)
    for _ in range(200):
        conns = [
            make_conn(
                cid,
                cls,
                sizes=[rng.randint(1, 1500) for _ in range(rng.randint(0, 6))],
            )
            for cid, cls in enumerate(
                (ServiceClass.UGS, ServiceClass.RTPS,
                 ServiceClass.NRTPS, ServiceClass.BE), start=1
            )
        ]
        grant = rng.randint(0, 4000)
        queued_before = {c.cid: list(c.queue) for c in conns}
        tx = schedule_frame_ss1(Station(conns, frame()), grant)
        assert tx.total_bytes <= grant
        assert tx.total_bytes == sum(p.size for _, p in tx.entries)
        # no duplication, no fabrication
        for cid, pkt in tx.entries:
            assert pkt in queued_before[cid]
        counts = {}
        for _, pkt in tx.entries:
            counts[id(pkt)] = counts.get(id(pkt), 0) + 1
        assert all(v == 1 for v in counts.values())


def test_ss1_weak_work_conservation():
    rng = random.Random(31)
    for _ in range(200):
        conns = [
            make_conn(
                cid, cls,
                sizes=[rng.randint(1, 1200) for _ in range(rng.randint(0, 5))],
            )
            for cid, cls in enumerate(
                (ServiceClass.UGS, ServiceClass.RTPS,
                 ServiceClass.NRTPS, ServiceClass.BE), start=1
            )
        ]
        grant = rng.randint(0, 5000)
        station = Station(conns, frame())
        tx = schedule_frame_ss1(station, grant)
        deficit = dict(zip((c.cid for c in station.drr), station.dfpq.deficit))
        leftover = grant - tx.total_bytes
        for c in conns:
            if not c.queue:
                continue
            head = c.queue[0].size
            if c.service_class in (ServiceClass.NRTPS, ServiceClass.BE):
                # head fitting both leftover and its current counter would
                # contradict round termination
                assert not (head <= leftover and head <= deficit[c.cid])


def test_ss2_starves_lower_classes_behind_backlog():
    conns = [
        make_conn(1, ServiceClass.NRTPS, sizes=[1000] * 10),
        make_conn(2, ServiceClass.BE, sizes=[50] * 10),
    ]
    tx = schedule_frame_ss2(Station(conns, frame()), 3500)
    assert [cid for cid, _ in tx.entries] == [1, 1, 1]
    # 500 bytes leftover would fit BE heads, but strict priority blocks them
    assert tx.total_bytes == 3000
    assert len(conns[1].queue) == 10


def test_ss2_fifo_over_be_alone():
    be = make_conn(1, ServiceClass.BE, sizes=[10, 20, 30], arrivals=[0, 1, 2])
    tx = schedule_frame_ss2(Station([be], frame()), 1000)
    assert [p.size for _, p in tx.entries] == [10, 20, 30]


def test_ss2_matches_ss1_packet_set_when_uncontended():
    conns1 = four_class_station()
    conns2 = four_class_station()
    tx1 = schedule_frame_ss1(Station(conns1, frame()), 50_000)
    tx2 = schedule_frame_ss2(Station(conns2, frame()), 50_000)
    key = lambda tx: sorted((cid, p.size, p.arrival_time) for cid, p in tx.entries)
    assert key(tx1) == key(tx2)


def oracle_split(sent, cids, originals):
    """The (cid, packet) entries an oracle's list of queue indices stands
    for, and the packets it leaves on each queue."""
    heads = [0] * len(originals)
    entries = []
    for q in sent:
        entries.append((cids[q], originals[q][heads[q]]))
        heads[q] += 1
    return entries, [orig[h:] for orig, h in zip(originals, heads)]


def same_packets(got, expected):
    return ([(cid, id(p)) for cid, p in got]
            == [(cid, id(p)) for cid, p in expected])


def test_dfpq_take_matches_reference():
    rng = random.Random(17)
    for _ in range(1500):
        nq = rng.randint(1, 6)
        queues = [[rng.randint(1, 1400) for _ in range(rng.randint(0, 12))]
                  for _ in range(nq)]
        quanta = [rng.randint(1, 1500) for _ in range(nq)]
        deficits = [rng.randint(0, 800) if queues[q] else 0 for q in range(nq)]
        cursor = rng.randint(0, nq - 1)
        budget = rng.randint(0, 6000)
        # descending cids: the visit order is the list order, not the cid's
        cids = [nq - q for q in range(nq)]
        conns = [make_conn(cids[q], ServiceClass.NRTPS, sizes=queues[q])
                 for q in range(nq)]
        originals = [list(c.queue) for c in conns]
        entries, dc, pos, used = dfpq_take(conns, quanta, deficits, cursor,
                                           budget)
        sent, ref_dc, ref_pos, ref_used = reference_dfpq(
            queues, quanta, deficits, cursor, budget)
        expected, leftovers = oracle_split(sent, cids, originals)
        assert same_packets(entries, expected)
        assert (dc, pos, used) == (ref_dc, ref_pos, ref_used)
        assert [list(c.queue) for c in conns] == leftovers


def test_edf_take_matches_sorted_reference():
    rng = random.Random(23)
    for _ in range(1500):
        nq = rng.randint(1, 5)
        counts = [rng.randint(0, 8) for _ in range(nq)]
        # whole-millisecond times, so equal deadlines and arrivals occur
        deadlines = [sorted(float(rng.randint(0, 40)) for _ in range(c))
                     for c in counts]
        arrivals = [sorted(float(rng.randint(0, 20)) for _ in range(c))
                    for c in counts]
        sizes = [[rng.randint(1, 1000) for _ in range(c)] for c in counts]
        cids = rng.sample(range(100), nq)
        budget = rng.randint(0, 5000)
        conns = [make_conn(cids[q], ServiceClass.RTPS, sizes=sizes[q],
                           arrivals=arrivals[q], deadlines=deadlines[q])
                 for q in range(nq)]
        originals = [list(c.queue) for c in conns]
        entries, used = edf_take(conns, budget)
        sent, ref_used = reference_edf(deadlines, arrivals, sizes, cids, budget)
        expected, leftovers = oracle_split(sent, cids, originals)
        assert same_packets(entries, expected)
        assert used == ref_used
        assert [list(c.queue) for c in conns] == leftovers
