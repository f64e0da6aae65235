import subprocess
import sys
from pathlib import Path

from conftest import frame, spec
from uplinksim.bs_alloc import (
    AllocationPlan,
    AllocationResult,
    BandwidthRequest,
    allocate_gpc,
    allocation_plan,
    phase1_guarantee,
    phase2_excess,
    pool_gpss,
)
from uplinksim import _kernels_py
from uplinksim._kernels_py import waterfill
from uplinksim.engine import Scenario
from uplinksim.model import ServiceClass


def req(cid, n):
    return BandwidthRequest(cid=cid, requested_bytes=n)


def plan_of(conns, frame_cfg=None):
    """The allocation plan of the scenario of ``conns`` on ``frame_cfg``
    (``frame()`` unless given)."""
    return allocation_plan(Scenario(frame_cfg or frame(), tuple(conns)))


def test_phase1_caps_at_request_and_minimum():
    # two 512 kbit/s reservations (640 B/frame each) against 5375 B capacity
    conns = [spec(1, ServiceClass.RTPS), spec(2, ServiceClass.NRTPS)]
    result = phase1_guarantee([req(1, 2000), req(2, 100)],
                              plan_of(conns, frame(5375)))
    assert result.allocated == {1: 640, 2: 100}
    assert result.remaining == 4635


def test_phase1_zero_requests():
    conns = [spec(1, ServiceClass.RTPS), spec(2, ServiceClass.BE)]
    result = phase1_guarantee([req(1, 0), req(2, 0)], plan_of(conns))
    assert result.allocated == {1: 0, 2: 0}
    assert result.remaining == frame().uplink_capacity_bytes


def test_phase1_single_request_below_minimum():
    conns = [spec(1, ServiceClass.NRTPS)]
    result = phase1_guarantee([req(1, 17)], plan_of(conns))
    assert result.allocated == {1: 17}


def test_phase2_worked_example():
    requests = [req(1, 600), req(2, 600)]
    start = AllocationResult(allocated={1: 0, 2: 0}, remaining=900)
    result = phase2_excess(start, requests, (1.0, 2.0))
    assert result.allocated == {1: 300, 2: 600}
    assert result.remaining == 0


def test_phase2_no_excess_is_identity():
    requests = [req(1, 500)]
    start = AllocationResult(allocated={1: 100}, remaining=0)
    result = phase2_excess(start, requests, (1.0,))
    assert result.allocated == {1: 100}
    assert result.remaining == 0


def test_phase2_single_unmet_fully_satisfied():
    requests = [req(1, 500)]
    start = AllocationResult(allocated={1: 100}, remaining=1000)
    result = phase2_excess(start, requests, (3.0,))
    assert result.allocated == {1: 500}
    assert result.remaining == 600


def counted_waterfill(monkeypatch):
    """The list the kernel's calls are appended to while it is wrapped."""
    calls = []

    def wrapped(deficits, weights, remaining):
        calls.append(remaining)
        return waterfill(deficits, weights, remaining)

    monkeypatch.setattr(_kernels_py, "waterfill", wrapped)
    return calls


def test_phase2_grants_fitting_deficits_without_the_kernel(monkeypatch):
    calls = counted_waterfill(monkeypatch)
    requests = [req(1, 900), req(2, 0), req(3, 350), req(4, 40)]
    start = AllocationResult(allocated={1: 640, 2: 0, 3: 320, 4: 40},
                             remaining=1000)
    result = phase2_excess(start, requests, (4.0, 2.0, 1.0, 1.0))
    assert calls == []
    assert result.allocated == {1: 900, 2: 0, 3: 350, 4: 40}
    assert result.remaining == 1000 - 260 - 30
    assert start.allocated == {1: 640, 2: 0, 3: 320, 4: 40}  # not mutated


def test_phase2_deficits_equal_to_the_rest_end_at_zero(monkeypatch):
    calls = counted_waterfill(monkeypatch)
    requests = [req(1, 600), req(2, 600)]
    start = AllocationResult(allocated={1: 0, 2: 300}, remaining=900)
    result = phase2_excess(start, requests, (1.0, 2.0))
    assert calls == []
    assert result.allocated == {1: 600, 2: 600}
    assert result.remaining == 0


def test_phase2_contended_deficits_call_the_kernel_once(monkeypatch):
    calls = counted_waterfill(monkeypatch)
    requests = [req(1, 600), req(2, 600)]
    start = AllocationResult(allocated={1: 0, 2: 300}, remaining=899)
    result = phase2_excess(start, requests, (1.0, 2.0))
    assert calls == [899]
    assert result.allocated == {1: 599, 2: 600}
    assert result.remaining == 0


def test_phase2_keeps_an_award_above_its_request(monkeypatch):
    # no phase-1 result holds one; phase 2 leaves it as it is, whether the
    # other deficits fit or not
    calls = counted_waterfill(monkeypatch)
    requests = [req(1, 300), req(2, 400)]
    for remaining, expected, rest in ((1000, {1: 500, 2: 400}, 700),
                                      (300, {1: 500, 2: 400}, 0),
                                      (299, {1: 500, 2: 399}, 0)):
        start = AllocationResult(allocated={1: 500, 2: 100}, remaining=remaining)
        result = phase2_excess(start, requests, (1.0, 1.0))
        assert (result.allocated, result.remaining) == (expected, rest)
    assert calls == [299]


def test_allocate_gpc_skips_the_kernel_when_requests_fit(monkeypatch):
    calls = counted_waterfill(monkeypatch)
    conns = [spec(1, ServiceClass.RTPS), spec(2, ServiceClass.BE)]
    plan = plan_of(conns, frame(5375))
    assert allocate_gpc([req(1, 2000), req(2, 3000)], plan) == {1: 2000, 2: 3000}
    assert calls == []
    assert allocate_gpc([req(1, 2000), req(2, 4000)], plan) == {1: 2000, 2: 3375}
    assert calls == [5375 - 640 - 320]


def test_pool_gpss_sums_per_station():
    conns = [
        spec(1, ServiceClass.RTPS, ss=1),
        spec(2, ServiceClass.BE, ss=1),
        spec(3, ServiceClass.BE, ss=2),
    ]
    result = AllocationResult(allocated={1: 640, 2: 320, 3: 50}, remaining=0)
    grants = pool_gpss(result, plan_of(conns))
    assert grants == {1: 960, 2: 50}  # keyed by station, not connection


def test_pool_gpss_empty():
    # a Scenario has at least one connection, but a plan may be built empty
    empty = AllocationPlan(cids=(), minimums=(), weights=(), ss_ids=(), capacity=100)
    assert pool_gpss(AllocationResult({}, 100), empty) == {}


def test_allocation_plan_is_aligned_in_cid_order():
    conns = [
        spec(7, ServiceClass.BE, ss=2),
        spec(3, ServiceClass.UGS, ss=1),
        spec(5, ServiceClass.RTPS, ss=2),
    ]
    plan = plan_of(conns, frame(5375))
    assert plan.cids == (3, 5, 7)
    assert plan.minimums == (320, 640, 320)
    assert plan.weights == (1.0, 4.0, 1.0)
    assert plan.ss_ids == (1, 2, 2)
    assert plan.capacity == 5375


def test_allocate_gpc_equals_two_phase_pipeline():
    conns = [spec(1, ServiceClass.RTPS), spec(2, ServiceClass.NRTPS),
             spec(3, ServiceClass.BE)]
    requests = [req(1, 2000), req(2, 3000), req(3, 4000)]
    plan = plan_of(conns)
    expected = phase2_excess(
        phase1_guarantee(requests, plan), requests, plan.weights
    )
    grants = allocate_gpc(requests, plan)
    assert set(grants) == {c.cid for c in conns}  # keyed by connection
    assert grants == expected.allocated


def test_allocate_gpc_ugs_fixed_grant_every_frame():
    conns = [spec(1, ServiceClass.UGS), spec(2, ServiceClass.UGS)]
    plan = plan_of(conns)
    for _ in range(5):
        grants = allocate_gpc([req(1, 320), req(2, 320)], plan)
        assert grants == {1: 320, 2: 320}


# powers of two, other integers and fractions: a float rule is exact only
# on the first
WEIGHTS = [1, 1, 2, 4, 10, 0.3, 1.5, 3, 3.25, 6, 7, 9, 11]


def random_instance(rng, max_conns=4, max_capacity=64):
    n = rng.randint(1, max_conns)
    while True:
        capacity = rng.randint(1, max_capacity)
        bwmin = [rng.randint(0, 10) for _ in range(n)]
        if sum(bwmin) <= capacity:
            break
    requested = [rng.randint(0, 40) for _ in range(n)]
    weights = [float(rng.choice(WEIGHTS)) for _ in range(n)]
    return requested, bwmin, weights, capacity


def run_pipeline(requested, bwmin, weights, capacity):
    """Drive phase1+phase2 through the public surface with a plan whose
    guaranteed minimums are ``bwmin``."""
    n = len(requested)
    plan = AllocationPlan(cids=tuple(range(n)), minimums=tuple(bwmin),
                          weights=tuple(map(float, weights)), ss_ids=(0,) * n,
                          capacity=capacity)
    requests = [req(i, r) for i, r in enumerate(requested)]
    result = phase2_excess(phase1_guarantee(requests, plan), requests, plan.weights)
    return [result.allocated[i] for i in range(n)], result.remaining


def test_waterfill_exact_for_non_power_of_two_weights():
    # a float threshold counted 61 of 62 bytes, as it counts 60 of a
    # contended 61 (61 / 7 * 7 < 61), and split the exact tie
    # 3 * (1 / 0.3) == 5 * (1 / 1.5) toward the higher index
    assert waterfill([62], [7], 61) == [61]
    assert waterfill([62], [7.0], 61) == [61]
    assert waterfill([23, 24], [0.3, 1.5], 7) == [2, 5]
    assert waterfill([13, 25, 19], [9.0, 0.3, 3.0], 25) == [13, 2, 10]


def test_integer_weights_never_import_fractions():
    # exact rationals are only needed for non-integer weights; importing
    # ``fractions`` costs every run start-up time and memory
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from uplinksim.config import baseline_config\n"
        "from uplinksim.engine import SimMode, run\n"
        "run(baseline_config().scenario, SimMode.SS1, 50, seed=1, rho=1.2)\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
