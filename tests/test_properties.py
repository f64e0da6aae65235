"""Property tests of the excess allocation's weight order, of Jain's
fairness index and of the metrics accumulator against its per-packet
oracle."""

import math
from array import array
from dataclasses import replace

import pytest

from conftest import QOS, frame
from reference import reference_samples
from test_bs_alloc import req
from uplinksim.bs_alloc import AllocationResult, phase2_excess
from uplinksim.engine import ConnSpec, RunResult, SimMode
from uplinksim.metrics import jain_index, run_summary, warmup_ms, window_metrics
from uplinksim.model import PacketLog, ServiceClass
from uplinksim.traffic import TrafficKind, TrafficModel

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(derandomize=True, max_examples=300, deadline=None)
@given(demand=st.integers(5, 60), w_small=st.integers(1, 4),
       extra=st.integers(1, 6), remaining=st.integers(0, 80))
@example(demand=60, w_small=1, extra=6, remaining=0)
@example(demand=37, w_small=3, extra=0, remaining=80)  # equal weights
def test_weight_monotonicity(demand, w_small, extra, remaining):
    # of two equal requests, the heavier one gets at least the lighter
    # one's share, less the one byte that can fall either way
    requests = [req(1, demand), req(2, demand)]
    start = AllocationResult(allocated={1: 0, 2: 0}, remaining=remaining)
    result = phase2_excess(start, requests, (float(w_small), float(w_small + extra)))
    assert result.allocated[2] >= result.allocated[1] - 1


# the values random.random() * 100 takes: k / 2**53 * 100
RATES = st.integers(0, 2**53 - 1).map(lambda k: k / 2**53 * 100)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(RATES, min_size=1, max_size=8))
@example([42.0] * 8)  # equal rates: the index is 1
@example([0.0, 0.0, 0.0, 17.5])  # one positive rate: the index is 1/n
def test_jain_index_scale_invariance_and_bounds(rates):
    assume(sum(rates) > 0)
    n = len(rates)
    j = jain_index(rates)
    for c in (0.001, 3.0, 1e6):
        assert jain_index([c * r for r in rates]) == pytest.approx(j, abs=1e-12)
    assert 1 / n - 1e-12 <= j <= 1 + 1e-12


# one connection: its class, its latency bound, its exits as (frame,
# dropped, delay, size), and the arrival ages of the packets still queued
CONN = st.tuples(
    st.sampled_from(ServiceClass),
    st.none() | st.floats(0.0, 60.0),
    st.lists(st.tuples(st.integers(1, 120), st.booleans(), st.floats(0.0, 60.0),
                       st.integers(1, 1500)), max_size=30),
    st.lists(st.floats(0.0, 60.0), max_size=4),
)


def built_result(duration_ms, frames, conns):
    """A RunResult whose logs look like the engine's: each exit departs at
    the end of its frame (``frames`` caps the frame), in frame order, NaN
    when dropped, and the queued tail follows."""
    specs, logs = [], {}
    for cid, (cls, bound, exits, queued) in enumerate(conns):
        specs.append(ConnSpec(cid, 0, cls, replace(QOS[cls], max_latency_ms=bound),
                              TrafficModel(TrafficKind.CBR, 1.0, 10, 10)))
        exits = sorted((min(k, frames) * duration_ms, dropped, delay, size)
                       for k, dropped, delay, size in exits)
        log = PacketLog(
            array("q", [size for *_, size in exits] + [100] * len(queued)),
            array("d", [end - delay for end, _, delay, _ in exits]
                  + [frames * duration_ms - age for age in queued]))
        log.departure.extend(math.nan if dropped else end
                             for end, dropped, _, _ in exits)
        logs[cid] = log
    return RunResult(mode=SimMode.SS1, seed=1, rho=1.0, frames=frames,
                     frame=frame(duration=duration_ms), conns=tuple(specs),
                     logs=logs, granted=[0] * frames,
                     used=[(fr * 997) % 5376 for fr in range(frames)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(duration_ms=st.floats(2.5, 13.3), frames=st.integers(1, 120),
       warmup=st.floats(0.0, 0.9), window_ms=st.floats(1.0, 200.0),
       conns=st.lists(CONN, min_size=1, max_size=4))
# frame 89 ends at 293.7 ms, below the last window's end 293.70000000000005,
# and (293.7 - 89.1) // 6.6 == 31.0 == n: the clamp into the last window
@example(duration_ms=3.3, frames=90, warmup=0.3, window_ms=6.6,
         conns=[(ServiceClass.RTPS, 20.0, [(89, False, 5.0, 100)], [])])
# frame 18 ends at 239.4 ms, in window 12 though below its nominal start
# 79.8 + 12 * 13.3 = 239.40000000000003: window 11's cut, after frame 17,
# must step back
@example(duration_ms=13.3, frames=20, warmup=0.3, window_ms=13.3,
         conns=[(ServiceClass.BE, None, [(17, False, 1.0, 100),
                                         (18, False, 2.0, 200)], [])])
# frame 10 ends at 77.0 ms, the nominal end of window 4 (5 * 15.4), and is
# still in window 4: the run cut there is continued
@example(duration_ms=7.7, frames=12, warmup=0.0, window_ms=15.4,
         conns=[(ServiceClass.BE, None, [(9, False, 1.0, 100),
                                         (10, False, 2.0, 200)], [])])
def test_metrics_match_the_per_packet_oracle(duration_ms, frames, warmup,
                                             window_ms, conns):
    result = built_result(duration_ms, frames, conns)
    total = frames * duration_ms
    start = warmup_ms(result, warmup)
    assert run_summary(result, warmup) == \
        reference_samples(result, start, total - start, 1, total)[0]
    n = int((total - start + 1e-9) // window_ms)
    expected = []
    if n > 0:
        end = start + (n - 1) * window_ms + window_ms
        expected = reference_samples(result, start, window_ms, n, end)
    assert window_metrics(result, window_ms, warmup) == expected
