import pytest

from conftest import frame, make_conn
from uplinksim.config import DEFAULT_QOS
from uplinksim.model import (
    FrameConfig,
    QosParams,
    ServiceClass,
    bytes_per_frame,
    guaranteed_bytes,
    validate_scenario,
)


def test_bytes_per_frame_table_values():
    f = frame()
    assert bytes_per_frame(256, f) == 320
    assert bytes_per_frame(0, f) == 0
    assert bytes_per_frame(1024, f) == 1280
    assert bytes_per_frame(512, f) == 640


def test_bytes_per_frame_rejects_negative():
    with pytest.raises(ValueError):
        bytes_per_frame(-1, frame())


def test_bytes_per_frame_monotone_and_nearly_linear():
    f = frame()
    prev = 0
    for r in range(0, 4000, 7):
        cur = bytes_per_frame(r, f)
        assert cur >= prev
        assert abs(bytes_per_frame(2 * r, f) - 2 * cur) <= 1
        prev = cur


def test_service_class_priority_order():
    assert ServiceClass.UGS > ServiceClass.RTPS > ServiceClass.NRTPS > ServiceClass.BE


def test_guaranteed_bytes_per_class():
    f = frame()
    assert guaranteed_bytes(make_conn(1, ServiceClass.UGS), f) == 320
    assert guaranteed_bytes(make_conn(2, ServiceClass.RTPS), f) == 640
    assert guaranteed_bytes(make_conn(3, ServiceClass.NRTPS), f) == 640
    assert guaranteed_bytes(make_conn(4, ServiceClass.BE), f) == 320


def test_validate_single_station_fits_default_capacity():
    conns = [
        make_conn(1, ServiceClass.UGS),
        make_conn(2, ServiceClass.RTPS),
        make_conn(3, ServiceClass.NRTPS),
        make_conn(4, ServiceClass.BE),
    ]
    assert validate_scenario(conns, frame(capacity=5375)) == []


def test_validate_empty_scenario_is_ok():
    assert validate_scenario([], frame()) == []


def test_validate_reports_reserved_sum_exceeding_capacity():
    conn = make_conn(
        1,
        ServiceClass.RTPS,
        qos=QosParams(max_sustained_kbps=90000.0, min_reserved_kbps=80000.0,
                      max_latency_ms=20.0, weight=1.0),
    )
    problems = validate_scenario([conn], frame(capacity=5375))
    assert any("reserved sum exceeds" in p for p in problems)


def test_validate_reports_every_violation_not_just_first():
    bad_rtps = make_conn(
        1, ServiceClass.RTPS,
        qos=QosParams(max_sustained_kbps=1024.0, min_reserved_kbps=512.0,
                      weight=1.0),  # missing latency
    )
    bad_ugs = make_conn(
        1, ServiceClass.UGS,  # duplicate cid on purpose
        qos=QosParams(max_sustained_kbps=256.0, min_reserved_kbps=64.0),
    )
    problems = validate_scenario([bad_rtps, bad_ugs], frame())
    assert any("requires max_latency_ms" in p for p in problems)
    assert any("must not set min_reserved_kbps" in p for p in problems)
    assert any("duplicate" in p for p in problems)


def test_validate_rate_ordering_and_positivity():
    swapped = make_conn(
        1, ServiceClass.NRTPS,
        qos=QosParams(max_sustained_kbps=256.0, min_reserved_kbps=512.0, weight=2.0),
    )
    problems = validate_scenario([swapped], frame())
    assert any("exceeds max_sustained_kbps" in p for p in problems)

    nonpositive = make_conn(
        1, ServiceClass.BE, qos=QosParams(min_reserved_kbps=-5.0, weight=1.0)
    )
    problems = validate_scenario([nonpositive], frame())
    assert any("must be > 0" in p for p in problems)

    for name in ("max_sustained_kbps", "min_reserved_kbps", "max_latency_ms",
                 "weight"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            qos = QosParams(**{**vars(DEFAULT_QOS[ServiceClass.RTPS]), name: bad})
            problems = validate_scenario([make_conn(1, ServiceClass.RTPS, qos=qos)],
                                         frame())
            assert f"cid 1: {name} must be finite, got {bad}" in problems


def test_validate_ok_implies_phase1_feasible():
    # the reservation sum counts the fixed UGS grant, so a valid scenario can
    # always grant every minimum within one frame
    f = frame(capacity=1920)
    conns = [
        make_conn(1, ServiceClass.UGS),
        make_conn(2, ServiceClass.RTPS),
        make_conn(3, ServiceClass.NRTPS),
        make_conn(4, ServiceClass.BE),
    ]
    assert validate_scenario(conns, f) == []  # 320+640+640+320 == 1920 exactly
    assert validate_scenario(conns, FrameConfig(10.0, 1919)) != []


def test_frame_config_validation():
    assert validate_scenario([], FrameConfig(0.0, 100)) != []
    assert validate_scenario([], FrameConfig(10.0, 0)) != []
