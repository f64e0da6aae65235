from dataclasses import replace

import pytest

from conftest import frame, make_conn
from uplinksim.model import ServiceClass
from uplinksim.traffic import (
    TrafficKind,
    TrafficModel,
    TrafficSource,
    default_models,
    model_violations,
)


def total_bytes(source, frames):
    return sum(p.size for k in range(frames) for p in source.generate(k))


def test_ugs_cbr_exactly_one_packet_per_frame():
    conn = make_conn(1, ServiceClass.UGS)
    src = TrafficSource(conn, default_models()[ServiceClass.UGS], frame(), 1.0, seed=5)
    for k in range(200):
        pkts = src.generate(k)
        assert len(pkts) == 1
        assert pkts[0].size == 320
        assert pkts[0].arrival_time == k * 10.0  # frame start
        assert pkts[0].deadline is None


def test_zero_intensity_silences_every_model():
    for cls, model in default_models().items():
        conn = make_conn(1, cls)
        src = TrafficSource(conn, model, frame(), 0.0, seed=3)
        assert all(src.generate(k) == [] for k in range(50))


def test_ugs_does_not_scale_beyond_provisioned_rate():
    conn = make_conn(1, ServiceClass.UGS)
    model = default_models()[ServiceClass.UGS]
    hot = TrafficSource(conn, model, frame(), 1.7, seed=5)
    assert total_bytes(hot, 500) == 500 * 320
    cool = TrafficSource(conn, model, frame(), 0.5, seed=5)
    assert total_bytes(cool, 500) == 250 * 320


def test_poisson_bulk_long_run_rate():
    conn = make_conn(1, ServiceClass.NRTPS)
    model = TrafficModel(TrafficKind.POISSON_BULK, 512.0, 1250, 1250)
    src = TrafficSource(conn, model, frame(), 1.0, seed=11)
    got = total_bytes(src, 10_000)
    expected = 512_000 * 100 / 8  # 512 kbit/s for 100 s
    assert abs(got - expected) / expected < 0.05


def test_onoff_long_run_rate_and_frame_bounds():
    conn = make_conn(1, ServiceClass.RTPS)
    model = default_models()[ServiceClass.RTPS]
    src = TrafficSource(conn, model, frame(), 1.0, seed=2)
    total = 0
    for k in range(10_000):
        pkts = src.generate(k)
        start, end = k * 10.0, (k + 1) * 10.0
        arrivals = [p.arrival_time for p in pkts]
        assert all(start <= t < end for t in arrivals)
        assert arrivals == sorted(arrivals)
        total += sum(p.size for p in pkts)
    expected = 1024_000 * 100 / 8
    assert abs(total - expected) / expected < 0.05


def test_rtps_packets_carry_deadline():
    conn = make_conn(1, ServiceClass.RTPS)
    src = TrafficSource(conn, default_models()[ServiceClass.RTPS], frame(), 1.0, 7)
    pkts = [p for k in range(300) for p in src.generate(k)]
    assert pkts
    assert all(p.deadline == p.arrival_time + 20.0 for p in pkts)


def test_determinism_and_seed_sensitivity():
    conn = make_conn(1, ServiceClass.BE)
    model = default_models()[ServiceClass.BE]

    def stream(seed):
        src = TrafficSource(conn, model, frame(), 1.0, seed)
        return [(p.size, p.arrival_time) for k in range(300) for p in src.generate(k)]

    assert stream(4) == stream(4)
    assert stream(4) != stream(5)


def test_intensity_linearity_for_elastic_models():
    for cls in (ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE):
        conn = make_conn(1, cls)
        model = default_models()[cls]
        one = total_bytes(TrafficSource(conn, model, frame(), 1.0, seed=8), 10_000)
        two = total_bytes(TrafficSource(conn, model, frame(), 2.0, seed=8), 10_000)
        assert abs(two - 2 * one) / (2 * one) < 0.05


def test_no_packet_exceeds_frame_capacity():
    f = frame()
    for cls, model in default_models().items():
        assert model_violations(1, model, f) == []
        conn = make_conn(1, cls)
        src = TrafficSource(conn, model, f, 1.4, seed=6)
        assert all(
            1 <= p.size <= f.uplink_capacity_bytes
            for k in range(500)
            for p in src.generate(k)
        )


def test_model_violations_flag_oversized_packets():
    model = TrafficModel(TrafficKind.POISSON_MIX, 512.0, 64, 9000)
    assert any("exceeds uplink capacity" in p
               for p in model_violations(1, model, frame()))


def test_default_models_match_contracts():
    models = default_models()
    assert models[ServiceClass.UGS].kind is TrafficKind.CBR
    assert models[ServiceClass.UGS].size_lo == 320
    assert models[ServiceClass.RTPS].kind is TrafficKind.ONOFF_VBR
    assert models[ServiceClass.RTPS].mean_rate_kbps == 1024.0
    assert models[ServiceClass.NRTPS].kind is TrafficKind.POISSON_BULK
    assert models[ServiceClass.BE].kind is TrafficKind.POISSON_MIX
    assert models[ServiceClass.BE].mean_rate_kbps == 512.0


def test_non_finite_intensity_and_model_values_rejected():
    conn = make_conn(1, ServiceClass.RTPS)
    model = default_models()[ServiceClass.RTPS]
    for rho in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="traffic intensity"):
            TrafficSource(conn, model, frame(), rho, seed=1)
    for field, problem in (("mean_rate_kbps", "traffic mean rate must be finite"),
                           ("mean_on_ms", "on/off mean durations must be finite"),
                           ("mean_off_ms", "on/off mean durations must be finite")):
        for bad in (float("nan"), float("inf")):
            bad_model = replace(model, **{field: bad})
            assert model_violations(1, bad_model, frame()) == [f"cid 1: {problem}"]
