"""Property tests of the excess allocation's weight order, of Jain's
fairness index, of the metrics accumulator against its per-packet oracle,
and of scenario and run-matrix construction on faulty fields, in code and
as text."""

import math
from array import array
from dataclasses import replace

import pytest

from conftest import frame, spec
from perfbench.invariants import check_cell
from reference import reference_samples
from test_bs_alloc import req
from uplinksim.bs_alloc import AllocationResult, phase2_excess
from uplinksim.config import (
    DEFAULT_QOS,
    ConfigError,
    ScenarioConfig,
    baseline_config,
    baseline_scenario,
    parse_config,
    serialize_config,
)
from uplinksim.engine import (
    MAX_CELL_WORK,
    RunResult,
    Scenario,
    ScenarioError,
    SimMode,
    burst_steps,
    frame_work,
    run,
)
from uplinksim.metrics import jain_index, run_summary, warmup_ms, window_metrics
from uplinksim.model import QOS_FIELDS, FrameConfig, PacketLog, ServiceClass
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
        qos = replace(DEFAULT_QOS[cls], max_latency_ms=bound)
        specs.append(spec(cid, cls, qos, TrafficModel(TrafficKind.CBR, 1.0, 10, 10)))
        exits = sorted((min(k, frames) * duration_ms, dropped, delay, size)
                       for k, dropped, delay, size in exits)
        log = PacketLog(
            array("q", [size for *_, size in exits] + [100] * len(queued)),
            array("d", [end - delay for end, _, delay, _ in exits]
                  + [frames * duration_ms - age for age in queued]))
        log.departure.extend(math.nan if dropped else end
                             for end, dropped, _, _ in exits)
        logs[cid] = log
    return RunResult(frames=frames,
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


# the faults a scenario's numeric fields are drawn with, now and then; 10**400
# is an int too large for a float
ODD = (math.nan, math.inf, -math.inf, 0, -1.0, 0.5, 64.0, 1250.5, 10**400)


@st.composite
def maybe_odd(draw, sound, none=False):
    """A value from ``sound``, or about one time in twenty a fault from
    ``ODD``, or ``None`` where the field may be unset."""
    if draw(st.integers(0, 19)):
        return draw(sound)
    return draw(st.sampled_from(ODD + (None,) * none))


@st.composite
def conn_specs(draw):
    cls = draw(st.sampled_from(ServiceClass))
    default = DEFAULT_QOS[cls]
    qos = replace(default, weight=draw(maybe_odd(st.floats(0.1, 8.0), none=True)), **{
        name: draw(maybe_odd(st.just(getattr(default, name)), none=True))
        for name in QOS_FIELDS})
    kind = draw(st.sampled_from(TrafficKind))
    # sizes that mostly fit the frame, and a UGS grant of 320 B or more
    lo = draw(maybe_odd(st.integers(1, 320)))
    hi = lo
    if kind is not TrafficKind.CBR and cls is not ServiceClass.UGS:
        hi = draw(maybe_odd(st.integers(0, 1200).map(lambda extra: lo + extra)))
    model = TrafficModel(kind, draw(maybe_odd(st.floats(1.0, 2000.0))), lo, hi,
                         draw(maybe_odd(st.floats(1.0, 1000.0))),
                         draw(maybe_odd(st.floats(1.0, 1000.0))))
    return spec(draw(st.integers(-1, 1000)), cls, qos, model,
                ss=draw(st.integers(0, 2)))


BASE = baseline_scenario().conns
# cid 1 is the built-in cell's first rtPS connection
RT1 = BASE[1].qos
# cid 3 is the built-in cell's best-effort source, of 64-1250 byte packets
BE3 = BASE[3].traffic


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame_cfg=st.builds(FrameConfig, maybe_odd(st.floats(10.0, 20.0)),
                           maybe_odd(st.integers(2000, 20000) | st.just(16000.0))),
       conns=st.lists(conn_specs(), max_size=4))
# a NaN duration raised ValueError from the grant check; an infinite one
# reported only its 24 byte counts, and with no connections built
@example(frame_cfg=FrameConfig(math.nan, 16000), conns=BASE)
@example(frame_cfg=FrameConfig(math.inf, 16000), conns=BASE)
@example(frame_cfg=FrameConfig(math.inf, 16000), conns=())
# a fractional or NaN capacity built, then failed every cell of the
# built-in matrix (16000.5 only once the allocator is contended)
@example(frame_cfg=FrameConfig(10.0, 16000.5), conns=BASE)
@example(frame_cfg=FrameConfig(10.0, math.nan), conns=BASE)
# a float packet size built, then failed the size draw
@example(frame_cfg=FrameConfig(10.0, 16000), conns=BASE[:3] + (
    replace(BASE[3], traffic=replace(BE3, size_hi=1250.5)),) + BASE[4:])
@example(frame_cfg=FrameConfig(10.0, 16000), conns=BASE[:3] + (
    replace(BASE[3], traffic=replace(BE3, size_lo=64.0)),) + BASE[4:])
# an unset weight built, then failed the allocation plan
@example(frame_cfg=FrameConfig(10.0, 16000), conns=BASE[:1] + (
    replace(BASE[1], qos=replace(RT1, weight=None)),) + BASE[2:])
# an int QoS value too large for a float raised OverflowError
@example(frame_cfg=FrameConfig(10.0, 16000), conns=BASE[:1] + (
    replace(BASE[1], qos=replace(RT1, max_sustained_kbps=10**400)),) + BASE[2:])
@example(frame_cfg=FrameConfig(10.0, 16000), conns=BASE[:1] + (
    replace(BASE[1], qos=replace(RT1, weight=10**400)),) + BASE[2:])
def test_a_scenario_builds_or_names_its_problems(frame_cfg, conns):
    # construction either names the problems or builds a scenario whose
    # cells run and are reported, in one summary and in frame-long
    # windows; a cell that would draw too much is not run
    try:
        scenario = Scenario(frame_cfg, tuple(conns))
    except ScenarioError as exc:
        assert exc.problems
        return
    if 3 * frame_work(scenario, 1.0) <= 1e5:
        for mode in SimMode:
            result = run(scenario, mode, 3)
            assert check_cell(result) == []
            run_summary(result)
            window_metrics(result, scenario.frame.frame_duration_ms)


# an on/off source of duty 1e-12 whose bursts step below the clock from 410 frames
BURSTY = Scenario(FrameConfig(10.0, 16000), (spec(
    0, ServiceClass.RTPS, model=TrafficModel(TrafficKind.ONOFF_VBR, 1000.0, 100, 100,
                                             mean_on_ms=1e-9, mean_off_ms=1000.0)),))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenario=st.sampled_from([baseline_scenario(), BURSTY]),
       frames=st.sampled_from([-1, 0, 1, 2, 409, 410, 3000, MAX_CELL_WORK, 10**12,
                               10**400]) | st.integers(-3, 10**10),
       rhos=st.lists(st.sampled_from([0.0, 1e-9, 0.4, 1.0, 1.2, 200.0, 1e300, math.nan])
                     | st.floats(), min_size=1, max_size=4))
# raised ZeroDivisionError
@example(scenario=baseline_scenario(), frames=0, rhos=[1.0])
# built with 1.56e301 work units per frame
@example(scenario=baseline_scenario(), frames=5, rhos=[1e300])
def test_a_matrix_builds_within_the_ceiling_or_names_its_problems(scenario, frames,
                                                                  rhos):
    try:
        cfg = ScenarioConfig(scenario, frames=frames, rhos=tuple(rhos))
    except ConfigError as exc:
        assert exc.errors
        return
    resolution = math.ulp(frames * scenario.frame.frame_duration_ms)
    for rho in rhos:
        assert frame_work(cfg.scenario, rho) <= MAX_CELL_WORK / frames
        assert all(step > resolution for step in burst_steps(scenario, rho).values())


# the most frames the built-in cell may run at rho 1.0
MOST_FRAMES = int(MAX_CELL_WORK / frame_work(baseline_scenario(), 1.0))

# a value of each [run] field, valid or not, or of another type
RUN_VALUES = {
    "modes": st.lists(st.sampled_from(SimMode), max_size=3).map(tuple)
             | st.sampled_from([("ss1",), [SimMode.SS1], "ss1", None]),
    "frames": st.sampled_from([-1, 0, 1, 100, 3000, MOST_FRAMES, MOST_FRAMES + 1,
                               10**12]) | st.integers(-3, 2 * 10**6)
              | st.sampled_from([True, 1.5, 100.0, "100", None]),
    "seeds": st.lists(st.integers(-2**40, 2**40), max_size=3).map(tuple)
             | st.sampled_from([(True,), (1.5,), [1], ("1",), 1]),
    "rhos": st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.4, 1.2, 200.0, 1e300,
                                      math.nan, math.inf]) | st.floats(),
                     max_size=3).map(tuple)
            | st.sampled_from([("1.0",), [1.0], 1.0, (None,)]),
    "window_ms": st.sampled_from([0.01, 9.99, 10.0, 500.0, 0.0, -1.0, math.nan,
                                  math.inf]) | st.floats()
                 | st.sampled_from(["500", (500.0,), None]),
    "warmup": st.sampled_from([0.0, 0.1, 0.999, 1.0, 1.5, -0.1, math.nan])
              | st.floats() | st.sampled_from(["0.1", None]),
    # no int stands in for a bool: 1 == True, so its text reads back as equal
    "drop_expired": st.booleans() | st.sampled_from(["yes", "off", None]),
    "trace": st.booleans() | st.sampled_from(["yes", "off", None]),
    "outdir": st.sampled_from(["out", "", "runs/a b"]) | st.text()
              | st.sampled_from([5, b"out", None]),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fields=st.fixed_dictionaries({}, optional=RUN_VALUES))
# each built in code, while its text was refused
@example(fields={"window_ms": 0.01, "frames": 100})
@example(fields={"rhos": (-1.0,)})
@example(fields={"modes": ()})
@example(fields={"seeds": ()})
@example(fields={"rhos": ()})
@example(fields={"warmup": 1.5})
@example(fields={"window_ms": -1.0})
@example(fields={"window_ms": math.nan})
@example(fields={"warmup": math.nan})
# outdirs a file cannot hold, which built in code
@example(fields={"outdir": "a\nb"})
@example(fields={"outdir": "a\rb"})
@example(fields={"outdir": "a\x85b"})
@example(fields={"outdir": " x "})
# values of another type, which built in code: the labels failed the
# writers, the float and bool seeds ran, and the rest read back as others
@example(fields={"modes": ("ss1",)})
@example(fields={"seeds": (1.5,)})
@example(fields={"seeds": (True,)})
@example(fields={"frames": True})
@example(fields={"seeds": [1]})
@example(fields={"trace": "yes"})
@example(fields={"rhos": ("1.0",)})
@example(fields={"outdir": 5})
def test_a_matrix_builds_in_code_exactly_when_its_text_parses(fields):
    # the text is what ``serialize_config`` writes for the same values,
    # taken from an instance built without its checks
    base = baseline_config()
    unchecked = object.__new__(ScenarioConfig)
    unchecked.__dict__.update(vars(base), **fields)
    try:
        built = replace(base, **fields)
    except ConfigError as exc:
        assert exc.errors
        built = None
    try:
        text = serialize_config(unchecked)
    except (AttributeError, TypeError):  # a value of another type may have none
        text = None
    parsed = None
    if text is not None:
        try:
            parsed = parse_config(text)
        except ConfigError as exc:
            assert exc.errors
    if parsed is not None and vars(parsed) != vars(unchecked):
        # the text reads as other values, so they must not build: the
        # parser strips an outdir's surrounding whitespace, reads each list
        # as a tuple and each value as its field's type
        assert built is None
    else:
        assert parsed == built
