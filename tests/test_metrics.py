import math
from array import array

import pytest

from conftest import QOS, frame
from reference import delay_stats, throughput
from uplinksim.config import baseline_config
from uplinksim.engine import ConnSpec, RunResult, Scenario, SimMode, run
from uplinksim.metrics import (
    jain_index,
    run_summary,
    utilization,
    window_metrics,
)
from uplinksim.model import Packet, PacketLog, ServiceClass
from uplinksim.traffic import TrafficKind, TrafficModel


def packet_log(pkts):
    """The log the engine would write: departed packets first, in departure
    order (the order ``PacketLog`` promises), then the ones still queued."""
    departed = sorted((p for p in pkts if p.departure_time is not None),
                      key=lambda p: p.departure_time)
    rows = departed + [p for p in pkts if p.departure_time is None]
    log = PacketLog(array("q", [p.size for p in rows]),
                    array("d", [p.arrival_time for p in rows]))
    log.departure.extend(p.departure_time for p in departed)
    return log


def synthetic_result(packets_by_cid, classes, used=None, frames=100,
                     capacity=5375):
    """RunResult assembled by hand for metric unit tests."""
    conns = tuple(
        ConnSpec(cid, 0, cls, QOS[cls],
                 TrafficModel(TrafficKind.CBR, 1.0, 10, 10))
        for cid, cls in classes.items()
    )
    return RunResult(
        mode=SimMode.SS1, seed=1, rho=1.0, frames=frames,
        frame=frame(capacity=capacity),
        conns=conns,
        logs={cid: packet_log(pkts) for cid, pkts in packets_by_cid.items()},
        granted=used or [0] * frames,
        used=used or [0] * frames,
    )


def pkt(size, arrival, departure):
    return Packet(size=size, arrival_time=arrival, departure_time=departure)


# The hand-built runs last frames x 10 ms, so a summary without warm-up
# covers exactly [0, frames * 10 ms).

def test_delay_stats_example():
    result = synthetic_result(
        {1: [pkt(100, 0.0, 15.0), pkt(100, 0.0, 25.0), pkt(100, 0.0, 18.0)]},
        {1: ServiceClass.RTPS},
    )
    stats = run_summary(result, warmup_fraction=0.0).per_class[ServiceClass.RTPS]
    assert stats.mean_delay_ms == pytest.approx((15 + 25 + 18) / 3)
    assert stats.violation_rate == pytest.approx(1 / 3)


def test_delay_stats_absent_when_nothing_delivered():
    result = synthetic_result({1: [pkt(100, 0.0, None)]},
                              {1: ServiceClass.RTPS})
    stats = run_summary(result, warmup_fraction=0.0).per_class[ServiceClass.RTPS]
    assert (stats.mean_delay_ms, stats.violation_rate) == (None, None)


def test_delay_stats_no_violations_below_bound():
    result = synthetic_result(
        {1: [pkt(100, 0.0, 10.0), pkt(100, 5.0, 25.0)]},
        {1: ServiceClass.RTPS},
    )
    summary = run_summary(result, warmup_fraction=0.0)
    # a 20 ms delay is not strictly larger than the bound
    assert summary.per_class[ServiceClass.RTPS].violation_rate == 0.0


def test_classes_without_latency_never_violate():
    result = synthetic_result(
        {1: [pkt(100, 0.0, 500.0)]},
        {1: ServiceClass.BE},
    )
    summary = run_summary(result, warmup_fraction=0.0)
    assert summary.per_class[ServiceClass.BE].violation_rate == 0.0


def test_throughput_unit_conversion():
    result = synthetic_result(
        {1: [pkt(1280, 0.0, 5.0)]},
        {1: ServiceClass.NRTPS},
        frames=1,
    )
    summary = run_summary(result, warmup_fraction=0.0)
    assert summary.per_class[ServiceClass.NRTPS].throughput_kbps == 1024.0


def test_throughput_zero_and_grouping():
    result = synthetic_result(
        {1: [], 2: [pkt(100, 0.0, 5.0)]},
        {1: ServiceClass.BE, 2: ServiceClass.NRTPS},
        frames=10,
    )
    rates = run_summary(result, warmup_fraction=0.0).per_class
    assert rates[ServiceClass.BE].throughput_kbps == 0.0
    assert rates[ServiceClass.NRTPS].throughput_kbps == 8.0


def test_throughput_conservation_on_real_run():
    cfg = baseline_config()
    result = run(cfg.scenario, SimMode.SS1, 500, seed=1, rho=1.0)
    summary = run_summary(result, warmup_fraction=0.0)  # window [0, 5000)
    delivered = sum(
        p.size for s in result.conns for p in result.history[s.cid]
        if p.departure_time is not None and p.departure_time < 5000.0
    )
    total_kbps = sum(s.throughput_kbps for s in summary.per_class.values())
    assert total_kbps * 5000.0 / 8.0 == pytest.approx(delivered)


def test_utilization_handbuilt_patterns():
    full = synthetic_result({}, {}, used=[5375] * 100)
    assert utilization(full, (0.0, 1000.0)) == pytest.approx(1.0)
    idle = synthetic_result({}, {}, used=[0] * 100)
    assert utilization(idle, (0.0, 1000.0)) == 0.0
    alternating = synthetic_result({}, {}, used=[5375, 0] * 50)
    assert utilization(alternating, (0.0, 1000.0)) == pytest.approx(0.5)


def test_jain_index_identities():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0, abs=1e-12)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25, abs=1e-12)
    assert jain_index([1, 2, 3]) == pytest.approx(36 / 42, abs=1e-12)


def test_jain_index_edge_cases():
    assert jain_index([0.0, 0.0]) is None
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([-1.0])


def test_window_metrics_layout_and_warmup():
    cfg = baseline_config()
    result = run(cfg.scenario, SimMode.SS1, 1000, seed=1, rho=1.0)
    samples = window_metrics(result, window_ms=1000.0, warmup_fraction=0.1)
    assert len(samples) == 9  # 10 s run, 1 s warm-up, 1 s windows
    assert samples[0].window_start_ms == pytest.approx(1000.0)
    for s in samples:
        assert s.window_end_ms - s.window_start_ms == pytest.approx(1000.0)
        assert 0.0 <= s.utilization <= 1.0
        assert set(s.per_class) == {
            ServiceClass.UGS, ServiceClass.RTPS,
            ServiceClass.NRTPS, ServiceClass.BE,
        }


def test_window_metrics_rejects_non_finite_and_non_positive_windows():
    result = run(baseline_config().scenario, SimMode.SS1, 20, seed=1, rho=1.0)
    for window_ms in (math.inf, -math.inf, math.nan, 0.0, -5.0):
        with pytest.raises(ValueError, match="window_ms must be finite and > 0"):
            window_metrics(result, window_ms=window_ms)


def _assert_matches_oracle(result, sample):
    window = (sample.window_start_ms, sample.window_end_ms)
    rates = throughput(result, window)
    assert list(sample.per_class) == list(rates)
    for cls, stats in sample.per_class.items():
        mean, viol = delay_stats(result, window, cls)
        assert stats.mean_delay_ms == mean, (cls, window)
        assert stats.violation_rate == viol, (cls, window)
        assert stats.throughput_kbps == rates[cls], (cls, window)
    assert sample.utilization == utilization(result, window)


def test_window_metrics_agree_with_direct_computation():
    cfg = baseline_config()
    for mode in SimMode:
        for drop_expired in (False, True):
            result = run(cfg.scenario, mode, 600, seed=2, rho=1.1,
                         drop_expired=drop_expired)
            samples = window_metrics(result, window_ms=500.0,
                                     warmup_fraction=0.0)
            assert len(samples) == 12
            for sample in samples:
                _assert_matches_oracle(result, sample)
            summary = run_summary(result)
            assert (summary.window_start_ms, summary.window_end_ms) == \
                (600.0, 6000.0)
            _assert_matches_oracle(result, summary)


def test_run_summary_never_nan():
    cfg = baseline_config()
    result = run(cfg.scenario, SimMode.SS1, 200, seed=1, rho=0.0)  # no traffic
    summary = run_summary(result)
    for stats in summary.per_class.values():
        assert stats.mean_delay_ms is None
        assert stats.violation_rate is None
        assert stats.throughput_kbps == 0.0
    assert summary.jfi is None
    assert summary.utilization == 0.0
    assert not any(
        isinstance(v, float) and math.isnan(v)
        for stats in summary.per_class.values()
        for v in (stats.mean_delay_ms, stats.violation_rate,
                  stats.throughput_kbps)
        if v is not None
    )
