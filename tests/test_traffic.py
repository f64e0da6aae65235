import hashlib
from dataclasses import replace
from itertools import islice

import pytest

from conftest import frame, problems_of, spec
from uplinksim import traffic
from uplinksim.config import baseline_scenario, parse_config
from uplinksim.engine import draw_streams
from uplinksim.model import QosParams, ServiceClass
from uplinksim.traffic import (
    TrafficKind,
    TrafficModel,
    TrafficSource,
    default_models,
    draw_stream,
)


def per_frame(stream):
    """The stream's (size, arrival) rows, split into frames by its counts."""
    rows = zip(stream.size, stream.arrival)
    return [list(islice(rows, n)) for n in stream.counts]


def test_ugs_cbr_exactly_one_packet_per_frame():
    conn = spec(1, ServiceClass.UGS)
    stream = draw_stream(conn, default_models()[ServiceClass.UGS], frame(), 1.0,
                         seed=5, frames=200)
    # one 320-byte packet at every frame start
    assert per_frame(stream) == [[(320, k * 10.0)] for k in range(200)]


def test_zero_intensity_silences_every_model():
    for cls, model in default_models().items():
        stream = draw_stream(spec(1, cls), model, frame(), 0.0, seed=3,
                             frames=50)
        assert per_frame(stream) == [[]] * 50


def test_ugs_does_not_scale_beyond_provisioned_rate():
    conn = spec(1, ServiceClass.UGS)
    model = default_models()[ServiceClass.UGS]
    hot = draw_stream(conn, model, frame(), 1.7, seed=5, frames=500)
    assert sum(hot.size) == 500 * 320
    cool = draw_stream(conn, model, frame(), 0.5, seed=5, frames=500)
    assert sum(cool.size) == 250 * 320


def test_poisson_bulk_long_run_rate():
    conn = spec(1, ServiceClass.NRTPS)
    model = TrafficModel(TrafficKind.POISSON, 512.0, 1250, 1250)
    got = sum(draw_stream(conn, model, frame(), 1.0, seed=11, frames=10_000).size)
    expected = 512_000 * 100 / 8  # 512 kbit/s for 100 s
    assert abs(got - expected) / expected < 0.05


def test_onoff_long_run_rate_and_frame_bounds():
    conn = spec(1, ServiceClass.RTPS)
    model = default_models()[ServiceClass.RTPS]
    stream = draw_stream(conn, model, frame(), 1.0, seed=2, frames=10_000)
    for k, rows in enumerate(per_frame(stream)):
        start, end = k * 10.0, (k + 1) * 10.0
        arrivals = [t for _, t in rows]
        assert all(start <= t < end for t in arrivals)
        assert arrivals == sorted(arrivals)
    total = sum(stream.size)
    expected = 1024_000 * 100 / 8
    assert abs(total - expected) / expected < 0.05


def test_determinism_and_seed_sensitivity():
    conn = spec(1, ServiceClass.BE)
    model = default_models()[ServiceClass.BE]

    def stream(seed):
        return per_frame(draw_stream(conn, model, frame(), 1.0, seed, 300))

    assert stream(4) == stream(4)
    assert stream(4) != stream(5)


def test_intensity_linearity_for_elastic_models():
    for cls in (ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE):
        conn = spec(1, cls)
        model = default_models()[cls]
        one = sum(draw_stream(conn, model, frame(), 1.0, 8, 10_000).size)
        two = sum(draw_stream(conn, model, frame(), 2.0, 8, 10_000).size)
        assert abs(two - 2 * one) / (2 * one) < 0.05


def test_no_packet_exceeds_frame_capacity():
    f = frame()
    for cls, model in default_models().items():
        assert problems_of(f, spec(1, cls, model=model)) == []
        conn = spec(1, cls)
        stream = draw_stream(conn, model, f, 1.4, seed=6, frames=500)
        assert all(1 <= size <= f.uplink_capacity_bytes for size in stream.size)


def test_model_violations_flag_oversized_packets():
    model = TrafficModel(TrafficKind.POISSON, 512.0, 64, 9000)
    assert any("exceeds uplink capacity" in p
               for p in problems_of(frame(), spec(1, ServiceClass.BE, model=model)))
    # a size the draw cannot take: the size draw failed on a float
    for lo, hi in ((64, 1250.5), (64.0, 1250)):
        model = TrafficModel(TrafficKind.POISSON, 512.0, lo, hi)
        assert problems_of(frame(), spec(1, ServiceClass.BE, model=model)) == [
            f"cid 1: packet sizes must be ints, got {lo!r} and {hi!r}"]


def test_default_models_match_contracts():
    models = default_models()
    assert models[ServiceClass.UGS].kind is TrafficKind.CBR
    assert models[ServiceClass.UGS].size_lo == 320
    assert models[ServiceClass.RTPS].kind is TrafficKind.ONOFF_VBR
    assert models[ServiceClass.RTPS].mean_rate_kbps == 1024.0
    assert models[ServiceClass.NRTPS].kind is TrafficKind.POISSON
    assert models[ServiceClass.BE].kind is TrafficKind.POISSON
    assert models[ServiceClass.BE].mean_rate_kbps == 512.0


def test_non_finite_intensity_and_model_values_rejected():
    conn = spec(1, ServiceClass.RTPS)
    model = default_models()[ServiceClass.RTPS]
    for rho in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="traffic intensity"):
            draw_stream(conn, model, frame(), rho, seed=1, frames=10)
    for field, problem in (("mean_rate_kbps", "traffic mean rate must be finite"),
                           ("mean_on_ms", "on/off mean durations must be finite"),
                           ("mean_off_ms", "on/off mean durations must be finite")):
        for bad in (float("nan"), float("inf")):
            bad_model = replace(model, **{field: bad})
            assert (problems_of(frame(), spec(1, ServiceClass.RTPS, model=bad_model))
                    == [f"cid 1: {problem}"])


def stream_digest(spelling, sizes, latency, rho, frames=300, rate_kbps=900.0):
    """sha256 over the (size, arrival, deadline) reprs of every packet one
    source, of the model a scenario file spells ``spelling``, generates in
    ``frames`` frames.  The deadline is arrival plus ``latency``, or None
    without a bound."""
    qos = QosParams(max_sustained_kbps=1024.0, min_reserved_kbps=512.0,
                    max_latency_ms=latency, weight=1.0)
    cls = ServiceClass.NRTPS if latency is None else ServiceClass.RTPS
    (parsed,) = parse_config(
        f"[connection]\ncid = 0\nss = 0\nclass = be\nmodel = {spelling}\n"
        "rate_kbps = 900\nsize_bytes = 64\n").scenario.conns
    model = TrafficModel(parsed.traffic.kind, rate_kbps, *sizes)
    stream = draw_stream(spec(3, cls, qos=qos), model, frame(), rho,
                         seed=12, frames=frames)
    h = hashlib.sha256()
    for size, arrival in zip(stream.size, stream.arrival):
        deadline = None if latency is None else arrival + latency
        h.update(repr((size, arrival, deadline)).encode())
    return h.hexdigest()


# every model spelling a scenario file accepts; poisson_bulk and poisson_mix
# both select the one Poisson model, so their digests coincide.  Each case
# keeps the id it was recorded under, which names the spelling's enum member
# of that time.
SPELLINGS = {
    "cbr": "TrafficKind.CBR",
    "onoff": "TrafficKind.ONOFF_VBR",
    "poisson_bulk": "TrafficKind.POISSON_BULK",
    "poisson_mix": "TrafficKind.POISSON_MIX",
}
STREAM_CASES = [
    (spelling, sizes, latency, rho)
    for spelling in SPELLINGS
    for sizes in ((320, 320), (64, 1250))
    for latency in (None, 20.0)
    for rho in (0.5, 1.7)
]
STREAM_IDS = [f"{SPELLINGS[spelling]}-sizes{k}-{latency}-{rho}"
              for k, (spelling, _, latency, rho) in enumerate(STREAM_CASES)]

# recorded before the generators were restructured; any change to the RNG
# draw order, the size draws or the packet fields shows up here
PINNED_STREAMS = {
    "cbr 320-320 latency=None rho=0.5":
        "148d74b0e9f66f0a68b45faf67145efbf904b397eb10ac1abb44524aa3bfa7a4",
    "cbr 320-320 latency=None rho=1.7":
        "371e343fba026477fd780a422999b192b7ca84b16f56c188e9e82107e551d60d",
    "cbr 320-320 latency=20.0 rho=0.5":
        "702f5f4d1d9fd1f59d7d62c157c3f7a16e7974cbf1a4233c2c94397268e89a67",
    "cbr 320-320 latency=20.0 rho=1.7":
        "8788bfd9a36e4090e3ed6e695dc0aed14273aeefd73ee217b7cde9cdc40794bd",
    "cbr 64-1250 latency=None rho=0.5":
        "b60114ae33ffb46940b3d42e4739f1c16e8df09430cbd273d822ac3c9666ba46",
    "cbr 64-1250 latency=None rho=1.7":
        "02a88d5e5bb0814cc42e05a7999d1bdfaf9bf703d958d6977a8ed91cad112bf7",
    "cbr 64-1250 latency=20.0 rho=0.5":
        "3f76c2fcfb6b6a3314b80f890564e2b7d031c43135e9bf716d46c90c0505fef0",
    "cbr 64-1250 latency=20.0 rho=1.7":
        "fb3bd9e4243a58fdfa0184e944b348a6de3af5923b842d7db7ab5588667e8f06",
    "onoff 320-320 latency=None rho=0.5":
        "b98908ea3db99fef9d6a627845a12b13e65f6fd24adb2dec52db27aa40bdbd4d",
    "onoff 320-320 latency=None rho=1.7":
        "a897233a3a9f450a2c08a0fc0bfd5f702e791f6d6311ca248409a2297e076987",
    "onoff 320-320 latency=20.0 rho=0.5":
        "09ada4f601f9a04adbbf042813bb54c15a082a25b143c87e6359cba38f09dde1",
    "onoff 320-320 latency=20.0 rho=1.7":
        "497398dd2ed50be416dca30e1627f0b735d5e5f89c5628081097e7294fbe2e79",
    "onoff 64-1250 latency=None rho=0.5":
        "06f2c28728ce15013ead89fe34e50a463933f0a7ebb6a96d6245f44843107aa6",
    "onoff 64-1250 latency=None rho=1.7":
        "f0b55e51326e938b95031237b154ebff797b740569e4383bc7331a0f4c907422",
    "onoff 64-1250 latency=20.0 rho=0.5":
        "a01dc265e846be8396ff2de7bdb13106f794c1c3d3c5a94e2d3cdcd4bae4b564",
    "onoff 64-1250 latency=20.0 rho=1.7":
        "87c4f8a6e96e562643b4ba1ab887326d0c061684500fb268541f3226c4410366",
    "poisson_bulk 320-320 latency=None rho=0.5":
        "28c6eff90e7e260b438af502b9362540e8ecbd3b02b7d9172dfaf52cf871290b",
    "poisson_bulk 320-320 latency=None rho=1.7":
        "42522295eb77d904817491c0336edf9a583a4ceb88d2a414fc6dfafa2a3193ce",
    "poisson_bulk 320-320 latency=20.0 rho=0.5":
        "be6ac1df4d8630643b0e31ef83c9789965f9209888faad788e3e984528551c80",
    "poisson_bulk 320-320 latency=20.0 rho=1.7":
        "3a3059a95695410ed07fca87366cb0863c2995f0f75efea075bd5ccf3c229722",
    "poisson_bulk 64-1250 latency=None rho=0.5":
        "2c9f30d2d9b138567437f539d0fa8d499ea0f7fce8fff06b0fc4d1c7a7321237",
    "poisson_bulk 64-1250 latency=None rho=1.7":
        "3bd879a1f6d5b883d28c9f580ca7a4dd48b5378ef620fbfa304b10490fae513b",
    "poisson_bulk 64-1250 latency=20.0 rho=0.5":
        "f39ebba07522c57a118784508a287ea958b98a1cc28e1ed67cf9222491195d98",
    "poisson_bulk 64-1250 latency=20.0 rho=1.7":
        "939b0aea5f50a735fc96aab73f1b6ee4cc6f56ba55952828a76981334393a440",
    "poisson_mix 320-320 latency=None rho=0.5":
        "28c6eff90e7e260b438af502b9362540e8ecbd3b02b7d9172dfaf52cf871290b",
    "poisson_mix 320-320 latency=None rho=1.7":
        "42522295eb77d904817491c0336edf9a583a4ceb88d2a414fc6dfafa2a3193ce",
    "poisson_mix 320-320 latency=20.0 rho=0.5":
        "be6ac1df4d8630643b0e31ef83c9789965f9209888faad788e3e984528551c80",
    "poisson_mix 320-320 latency=20.0 rho=1.7":
        "3a3059a95695410ed07fca87366cb0863c2995f0f75efea075bd5ccf3c229722",
    "poisson_mix 64-1250 latency=None rho=0.5":
        "2c9f30d2d9b138567437f539d0fa8d499ea0f7fce8fff06b0fc4d1c7a7321237",
    "poisson_mix 64-1250 latency=None rho=1.7":
        "3bd879a1f6d5b883d28c9f580ca7a4dd48b5378ef620fbfa304b10490fae513b",
    "poisson_mix 64-1250 latency=20.0 rho=0.5":
        "f39ebba07522c57a118784508a287ea958b98a1cc28e1ed67cf9222491195d98",
    "poisson_mix 64-1250 latency=20.0 rho=1.7":
        "939b0aea5f50a735fc96aab73f1b6ee4cc6f56ba55952828a76981334393a440",
}


@pytest.mark.parametrize("spelling,sizes,latency,rho", STREAM_CASES,
                         ids=STREAM_IDS)
def test_traffic_streams_match_pinned_digests(spelling, sizes, latency, rho):
    key = f"{spelling} {sizes[0]}-{sizes[1]} latency={latency} rho={rho}"
    assert stream_digest(spelling, sizes, latency, rho) == PINNED_STREAMS[key]


def test_multi_chunk_poisson_stream_matches_pinned_digest(monkeypatch):
    # 300000 kbit/s of 575.5-byte mean packets is 651.6 a frame, summed
    # from two Knuth chunks; width 1024 makes about half of the raw size
    # draws redraw.  Recorded before the size and Poisson draws were inlined.
    sizes, rate = (64, 1087), 300_000.0
    splits = []
    poisson_chunks = traffic._poisson_chunks

    def chunks(lam):
        splits.append(poisson_chunks(lam))
        return splits[-1]

    monkeypatch.setattr(traffic, "_poisson_chunks", chunks)
    model = TrafficModel(TrafficKind.POISSON, rate, *sizes)
    draw_stream(spec(3, ServiceClass.RTPS), model, frame(), 1.0, seed=0,
                frames=0)
    assert [count for count, _ in splits] == [2]
    assert stream_digest("poisson", sizes, 20.0, 1.0, frames=20, rate_kbps=rate) == (
        "67d9b0568acc7c9a9192b131966681f70ec98bcedc62bc2f793865ca74c071fd")


def test_empty_size_range_is_refused():
    conn = spec(1, ServiceClass.BE)
    model = TrafficModel(TrafficKind.POISSON, 512.0, 100, 99)
    with pytest.raises(ValueError, match="empty packet size range 100-99"):
        draw_stream(conn, model, frame(), 1.0, seed=1, frames=10)


def test_poisson_large_mean_is_not_truncated():
    # lambda = 100000 kbit/s * 10 ms / 8 / 64 B = 1953.125 packets per frame;
    # a single product of uniforms underflows exp(-lambda) and stalls near 745
    conn = spec(1, ServiceClass.BE)
    model = TrafficModel(TrafficKind.POISSON, 100_000.0, 64, 64)
    frames = 200
    stream = draw_stream(conn, model, frame(capacity=200_000), 1.0, seed=4,
                         frames=frames)
    assert problems_of(frame(capacity=200_000),
                       spec(1, ServiceClass.BE, model=model)) == []
    mean = sum(stream.counts) / frames
    assert abs(mean - 1953.125) / 1953.125 < 0.02


# (model, rho, frames): every model, the two-chunk Poisson stream above, and
# a silent source
STREAM_MODELS = {
    "cbr": (TrafficModel(TrafficKind.CBR, 900.0, 320, 320), 1.7, 300),
    "onoff": (TrafficModel(TrafficKind.ONOFF_VBR, 900.0, 64, 1250), 1.7, 300),
    "poisson": (TrafficModel(TrafficKind.POISSON, 900.0, 64, 1250), 1.7, 300),
    "poisson-two-chunks":
        (TrafficModel(TrafficKind.POISSON, 300_000.0, 64, 1087), 1.0, 20),
    "rate-0": (TrafficModel(TrafficKind.POISSON, 900.0, 64, 1250), 0.0, 50),
}


@pytest.mark.parametrize("case", STREAM_MODELS)
def test_source_hands_out_its_stream_frame_by_frame(case):
    model, rho, frames = STREAM_MODELS[case]
    conn = spec(3, ServiceClass.RTPS)
    stream = draw_stream(conn, model, frame(), rho, seed=12, frames=frames)
    assert len(stream.counts) == frames
    assert len(stream.size) == len(stream.arrival) == sum(stream.counts)
    source = TrafficSource(conn, stream)
    assert source.conn is conn
    handed = [source.generate(k) for k in range(frames)]
    assert [[(p.size, p.arrival_time) for p in pkts]
            for pkts in handed] == per_frame(stream)
    assert all(p.departure_time is None and not p.dropped
               for pkts in handed for p in pkts)
    # the sources are open-loop: a shorter run draws a prefix of the stream
    head = draw_stream(conn, model, frame(), rho, seed=12, frames=frames // 2)
    assert per_frame(head) == per_frame(stream)[:frames // 2]


def test_streams_draw_sizes_through_size_draw(monkeypatch):
    # tests/test_draws.py checks _size_draws; every size the onoff and
    # poisson streams emit must come from it
    sizes = []
    size_draws_of = traffic._size_draws

    def size_draws(getrandbits, lo, hi):
        for size in size_draws_of(getrandbits, lo, hi):
            sizes.append(size)
            yield size

    monkeypatch.setattr(traffic, "_size_draws", size_draws)
    for kind in (TrafficKind.ONOFF_VBR, TrafficKind.POISSON):
        sizes.clear()
        model = TrafficModel(kind, 900.0, 64, 1250)
        emitted = list(draw_stream(spec(3, ServiceClass.RTPS), model,
                                   frame(), 1.0, seed=12, frames=200).size)
        # the on/off walk draws its next packet's size ahead
        ahead = 1 if kind is TrafficKind.ONOFF_VBR else 0
        assert emitted and sizes[:len(sizes) - ahead] == emitted


@pytest.mark.parametrize("seed", [1, 7])
def test_equal_cbr_sources_share_one_stream(seed):
    scenario = baseline_scenario()
    cell = draw_streams(scenario, 300, seed, 1.2)
    ugs = [(c, s) for c, s in zip(scenario.conns, cell.streams)
           if c.service_class is ServiceClass.UGS]
    assert len(ugs) == 4 and len({id(s) for _, s in ugs}) == 1
    for c, s in ugs:
        assert s == draw_stream(c, c.traffic, scenario.frame, 1.2, seed, 300)
    # every other source draws its own
    others = [s for c, s in zip(scenario.conns, cell.streams)
              if c.service_class is not ServiceClass.UGS]
    assert len({id(s) for s in others}) == len(others)

    # a CBR draw reads neither the seed nor the cid
    model = default_models()[ServiceClass.UGS]
    streams = [draw_stream(spec(cid, ServiceClass.UGS), model, frame(),
                           1.2, s, 300) for s in (1, 2) for cid in (1, 9)]
    assert all(s == streams[0] for s in streams)

    # but it reads the class: UGS is capped at rho 1, rtPS is not
    pair = replace(scenario, conns=(
        spec(1, ServiceClass.UGS), spec(2, ServiceClass.RTPS, model=model)))
    ugs_stream, rtps_stream = draw_streams(pair, 300, seed, 1.7).streams
    assert len(rtps_stream.size) > len(ugs_stream.size)
