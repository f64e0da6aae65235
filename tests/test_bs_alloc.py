import random

import pytest

from conftest import QOS, frame, make_conn
from reference import brute_force_alloc
from uplinksim.bs_alloc import (
    AllocationResult,
    BandwidthRequest,
    InfeasibleReservationError,
    allocate_gpc,
    phase1_guarantee,
    phase2_excess,
    pool_gpss,
    weights_of,
)
from uplinksim.model import QosParams, ServiceClass


def req(cid, n):
    return BandwidthRequest(cid=cid, requested_bytes=n)


def test_phase1_caps_at_request_and_minimum():
    # two 512 kbit/s reservations (640 B/frame each) against 5375 B capacity
    conns = [make_conn(1, ServiceClass.RTPS), make_conn(2, ServiceClass.NRTPS)]
    result = phase1_guarantee([req(1, 2000), req(2, 100)], conns, frame(5375))
    assert result.allocated == {1: 640, 2: 100}
    assert result.remaining == 4635


def test_phase1_zero_requests():
    conns = [make_conn(1, ServiceClass.RTPS), make_conn(2, ServiceClass.BE)]
    result = phase1_guarantee([req(1, 0), req(2, 0)], conns, frame())
    assert result.allocated == {1: 0, 2: 0}
    assert result.remaining == frame().uplink_capacity_bytes


def test_phase1_single_request_below_minimum():
    conns = [make_conn(1, ServiceClass.NRTPS)]
    result = phase1_guarantee([req(1, 17)], conns, frame())
    assert result.allocated == {1: 17}


def test_phase1_infeasible_reservations_raise():
    conns = [
        make_conn(
            k, ServiceClass.NRTPS,
            qos=QosParams(max_sustained_kbps=4096.0, min_reserved_kbps=4096.0,
                          weight=1.0),
        )
        for k in range(2)
    ]
    with pytest.raises(InfeasibleReservationError):
        phase1_guarantee([req(0, 10), req(1, 10)], conns, frame(5375))


def test_phase2_worked_example():
    requests = [req(1, 600), req(2, 600)]
    start = AllocationResult(allocated={1: 0, 2: 0}, remaining=900)
    result = phase2_excess(start, requests, {1: 1.0, 2: 2.0})
    assert result.allocated == {1: 300, 2: 600}
    assert result.remaining == 0


def test_phase2_no_excess_is_identity():
    requests = [req(1, 500)]
    start = AllocationResult(allocated={1: 100}, remaining=0)
    result = phase2_excess(start, requests, {1: 1.0})
    assert result.allocated == {1: 100}
    assert result.remaining == 0


def test_phase2_single_unmet_fully_satisfied():
    requests = [req(1, 500)]
    start = AllocationResult(allocated={1: 100}, remaining=1000)
    result = phase2_excess(start, requests, {1: 3.0})
    assert result.allocated == {1: 500}
    assert result.remaining == 600


def test_pool_gpss_sums_per_station():
    conns = [
        make_conn(1, ServiceClass.RTPS, ss=1),
        make_conn(2, ServiceClass.BE, ss=1),
        make_conn(3, ServiceClass.BE, ss=2),
    ]
    result = AllocationResult(allocated={1: 640, 2: 320, 3: 50}, remaining=0)
    grants = pool_gpss(result, conns)
    assert grants == {1: 960, 2: 50}  # keyed by station, not connection


def test_pool_gpss_empty():
    assert pool_gpss(AllocationResult({}, 100), []) == {}


def test_allocate_gpc_equals_two_phase_pipeline():
    conns = [make_conn(1, ServiceClass.RTPS), make_conn(2, ServiceClass.NRTPS),
             make_conn(3, ServiceClass.BE)]
    requests = [req(1, 2000), req(2, 3000), req(3, 4000)]
    weights = weights_of(conns)
    expected = phase2_excess(
        phase1_guarantee(requests, conns, frame()), requests, weights
    )
    grants = allocate_gpc(requests, conns, frame())
    assert set(grants) == {c.cid for c in conns}  # keyed by connection
    assert grants == expected.allocated


def test_allocate_gpc_ugs_fixed_grant_every_frame():
    conns = [make_conn(1, ServiceClass.UGS), make_conn(2, ServiceClass.UGS)]
    for _ in range(5):
        grants = allocate_gpc([req(1, 320), req(2, 320)], conns, frame())
        assert grants == {1: 320, 2: 320}


def random_instance(rng, max_conns=4, max_capacity=64):
    n = rng.randint(1, max_conns)
    while True:
        capacity = rng.randint(1, max_capacity)
        bwmin = [rng.randint(0, 10) for _ in range(n)]
        if sum(bwmin) <= capacity:
            break
    requested = [rng.randint(0, 40) for _ in range(n)]
    weights = [float(rng.choice([1, 1, 2, 3, 4, 10])) for _ in range(n)]
    return requested, bwmin, weights, capacity


def run_pipeline(requested, bwmin, weights, capacity):
    """Drive phase1+phase2 through the public surface with synthetic QoS
    contracts whose reservations equal the requested minimums."""
    conns = []
    requests = []
    wmap = {}
    f = frame(capacity=capacity)
    for i, (r, m, w) in enumerate(zip(requested, bwmin, weights)):
        # reservation of m bytes/frame <=> m * 8 / duration kbit/s
        rate = m * 8 / f.frame_duration_ms
        qos = QosParams(max_sustained_kbps=None,
                        min_reserved_kbps=rate if rate > 0 else 1e-9,
                        weight=w)
        conns.append(make_conn(i, ServiceClass.BE, qos=qos))
        requests.append(req(i, r))
        wmap[i] = w
    result = phase2_excess(phase1_guarantee(requests, conns, f), requests, wmap)
    return [result.allocated[i] for i in range(len(requested))], result.remaining


def test_allocator_conservation_and_caps_random():
    rng = random.Random(101)
    for _ in range(500):
        requested, bwmin, weights, capacity = random_instance(rng)
        alloc, remaining = run_pipeline(requested, bwmin, weights, capacity)
        assert sum(alloc) + remaining == capacity
        assert remaining >= 0
        assert all(a <= r for a, r in zip(alloc, requested))
        # minimum guarantee
        for a, r, m in zip(alloc, requested, bwmin):
            if r >= m:
                assert a >= m
        # remaining only when everyone is satisfied
        if remaining > 0:
            assert all(a == r for a, r in zip(alloc, requested))


def test_allocator_matches_byte_granular_oracle():
    rng = random.Random(77)
    for _ in range(1500):
        requested, bwmin, weights, capacity = random_instance(rng)
        alloc, _ = run_pipeline(requested, bwmin, weights, capacity)
        oracle = brute_force_alloc(requested, bwmin, weights, capacity)
        assert all(abs(a - b) <= 1 for a, b in zip(alloc, oracle)), (
            requested, bwmin, weights, capacity, alloc, oracle,
        )


def test_weight_monotonicity():
    rng = random.Random(55)
    for _ in range(300):
        demand = rng.randint(5, 60)
        w_small = float(rng.randint(1, 4))
        w_big = w_small + rng.randint(1, 6)
        remaining = rng.randint(0, 80)
        requests = [req(1, demand), req(2, demand)]
        start = AllocationResult(allocated={1: 0, 2: 0}, remaining=remaining)
        result = phase2_excess(start, requests, {1: w_small, 2: w_big})
        assert result.allocated[2] >= result.allocated[1] - 1
