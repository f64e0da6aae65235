import math
from dataclasses import replace

import pytest

from conftest import frame, problems_of, spec
from uplinksim.config import DEFAULT_QOS, baseline_scenario
from uplinksim.model import (
    FrameConfig,
    QosParams,
    ServiceClass,
    bytes_per_frame,
)
from uplinksim.engine import Scenario


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
    # the phase-1 minimum is the UGS grant or else the reservation; the
    # deficit-round quantum the sustained rate or else the reservation
    classes = (ServiceClass.UGS, ServiceClass.RTPS, ServiceClass.NRTPS,
               ServiceClass.BE)
    scenario = Scenario(frame(), tuple(spec(cid, cls)
                                       for cid, cls in enumerate(classes, 1)))
    assert scenario.minimums == (320, 640, 640, 320)
    assert scenario.quanta == (320, 1280, 1280, 320)
    # they derive from the frame and the contracts, so ``replace`` computes
    # them anew
    doubled = replace(scenario, frame=frame(duration=20.0))
    assert doubled.minimums == (640, 1280, 1280, 640)
    assert doubled.quanta == (640, 2560, 2560, 640)


def test_validate_single_station_fits_default_capacity():
    conns = (
        spec(1, ServiceClass.UGS),
        spec(2, ServiceClass.RTPS),
        spec(3, ServiceClass.NRTPS),
        spec(4, ServiceClass.BE),
    )
    assert problems_of(frame(capacity=5375), *conns) == []


def test_validate_empty_scenario_names_no_stations():
    # a scenario without connections built, ran and then failed its
    # summary's fairness index
    assert problems_of(frame()) == [
        "no subscriber stations: the scenario has no connections"]


def test_validate_reports_reserved_sum_exceeding_capacity():
    conn = spec(
        1,
        ServiceClass.RTPS,
        qos=QosParams(max_sustained_kbps=90000.0, min_reserved_kbps=80000.0,
                      max_latency_ms=20.0, weight=1.0),
    )
    problems = problems_of(frame(capacity=5375), conn)
    assert any("reserved sum exceeds" in p for p in problems)


def test_validate_reports_every_violation_not_just_first():
    bad_rtps = spec(
        1, ServiceClass.RTPS,
        qos=QosParams(max_sustained_kbps=1024.0, min_reserved_kbps=512.0,
                      weight=1.0),  # missing latency
    )
    bad_ugs = spec(
        1, ServiceClass.UGS,  # duplicate cid on purpose
        qos=QosParams(max_sustained_kbps=256.0, min_reserved_kbps=64.0),
    )
    problems = problems_of(frame(), bad_rtps, bad_ugs)
    assert any("requires max_latency_ms" in p for p in problems)
    assert any("must not set min_reserved_kbps" in p for p in problems)
    assert any("duplicate" in p for p in problems)


def test_validate_rate_ordering_and_positivity():
    swapped = spec(
        1, ServiceClass.NRTPS,
        qos=QosParams(max_sustained_kbps=256.0, min_reserved_kbps=512.0, weight=2.0),
    )
    problems = problems_of(frame(), swapped)
    assert any("exceeds max_sustained_kbps" in p for p in problems)

    nonpositive = spec(
        1, ServiceClass.BE, qos=QosParams(min_reserved_kbps=-5.0, weight=1.0)
    )
    problems = problems_of(frame(), nonpositive)
    assert any("must be > 0" in p for p in problems)

    for name in ("max_sustained_kbps", "min_reserved_kbps", "max_latency_ms",
                 "weight"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            qos = QosParams(**{**vars(DEFAULT_QOS[ServiceClass.RTPS]), name: bad})
            problems = problems_of(frame(), spec(1, ServiceClass.RTPS, qos=qos))
            assert f"cid 1: {name} must be finite, got {bad}" in problems


def test_validate_ok_implies_phase1_feasible():
    # the reservation sum counts the fixed UGS grant, so a valid scenario can
    # always grant every minimum within one frame
    f = frame(capacity=1920)
    conns = (
        spec(1, ServiceClass.UGS),
        spec(2, ServiceClass.RTPS),
        spec(3, ServiceClass.NRTPS),
        spec(4, ServiceClass.BE),
    )
    assert problems_of(f, *conns) == []  # 320+640+640+320 == 1920 exactly
    assert problems_of(FrameConfig(10.0, 1919), *conns) != []


def test_frame_config_validation():
    assert problems_of(FrameConfig(0.0, 100)) != []
    assert problems_of(FrameConfig(10.0, 0)) != []
    # a non-finite duration is named, and no grant is computed on it: NaN
    # raised ValueError and inf named only the 24 byte counts it overflowed
    for bad in (math.nan, math.inf):
        assert problems_of(FrameConfig(bad, 16000), *baseline_scenario().conns) \
            == [f"frame duration must be finite, got {bad}"]
    # a capacity must be a whole number of bytes; 16000.0 is one
    for bad in (16000.5, math.nan, math.inf):
        assert problems_of(FrameConfig(10.0, bad), *baseline_scenario().conns) == [
            f"uplink capacity must be a whole number of bytes, got {bad}"]
    assert problems_of(FrameConfig(10.0, 16000.0), *baseline_scenario().conns) == []


def test_a_bad_capacity_hides_no_other_contract_problem():
    # the built-in cell at capacity 0, with cid 1 renamed to 0 and cid 2's
    # weight negative: the duplicate id and the weight are named beside the
    # capacity, and so is the reservation sum that no capacity of 0 holds
    conns = []
    for s in baseline_scenario().conns:
        if s.cid == 1:
            s = replace(s, cid=0)
        elif s.cid == 2:
            s = replace(s, qos=replace(s.qos, weight=-1.0))
        conns.append(s)
    problems = problems_of(FrameConfig(10.0, 0), *conns)
    assert problems[0] == "uplink capacity must be > 0, got 0"
    assert "cid 0: duplicate connection id" in problems
    assert "cid 2: weight must be > 0, got -1.0" in problems
    assert any(p.startswith("reserved sum exceeds uplink capacity: ")
               for p in problems)
    assert sum("exceeds uplink capacity 0 bytes/frame" in p
               for p in problems) == len(conns)
