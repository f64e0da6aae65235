import re

import pytest

from uplinksim.config import (
    ConfigError,
    baseline_config,
    baseline_scenario,
    parse_config,
    serialize_config,
)
from uplinksim.engine import SimMode
from uplinksim.model import ServiceClass
from uplinksim.traffic import TrafficKind

MINIMAL = """
[frame]
capacity_bytes = 16000

[run]
modes = ss1
frames = 100
seeds = 1

[connection]
cid = 0
ss = 0
class = rtps
"""


def errors_of(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value.errors


def test_minimal_config_applies_class_defaults():
    cfg = parse_config(MINIMAL)
    spec = cfg.scenario.conns[0]
    assert spec.qos.max_sustained_kbps == 1024.0
    assert spec.qos.min_reserved_kbps == 512.0
    assert spec.qos.max_latency_ms == 20.0
    assert spec.qos.weight == 4.0
    assert spec.traffic.kind is TrafficKind.ONOFF_VBR


def test_baseline_scenario_has_sixteen_connections():
    scenario = baseline_scenario()
    assert len(scenario.conns) == 16
    assert {s.ss_id for s in scenario.conns} == {0, 1, 2, 3}
    per_class = {cls: 0 for cls in ServiceClass}
    for s in scenario.conns:
        per_class[s.service_class] += 1
    assert all(v == 4 for v in per_class.values())


def test_empty_config_reports_no_stations():
    errors = errors_of("")
    assert any("no subscriber stations" in e for e in errors)


def test_partial_qos_block_is_an_error_naming_the_cid():
    text = MINIMAL.replace(
        "class = rtps",
        "class = rtps\nmax_sustained_kbps = 1024\nmin_reserved_kbps = 512",
    )
    errors = errors_of(text)
    assert any("cid 0" in e and "max_latency_ms" in e for e in errors)


def test_unknown_key_and_section_are_errors_with_lines():
    errors = errors_of(MINIMAL + "\nbogus_key = 1\n")
    assert any("unknown key 'bogus_key'" in e and "line" in e for e in errors)
    errors = errors_of("[nonsense]\nx = 1\n" + MINIMAL)
    assert any("unknown section [nonsense]" in e for e in errors)


def test_duplicate_key_and_bad_value_errors():
    errors = errors_of(MINIMAL + "\n[frame]\ncapacity_bytes = 1\ncapacity_bytes = 2\n")
    assert any("duplicate key" in e for e in errors)
    errors = errors_of(MINIMAL.replace("frames = 100", "frames = ten"))
    assert any("must be an integer" in e for e in errors)


def test_validation_runs_at_parse_time():
    # reservations exceed the configured capacity
    text = MINIMAL.replace("capacity_bytes = 16000", "capacity_bytes = 500")
    errors = errors_of(text)
    assert any("reserved sum exceeds" in e for e in errors)


def test_oversized_traffic_rejected_at_parse_time():
    text = MINIMAL + "\nmodel = poisson_bulk\nrate_kbps = 64\nsize_bytes = 64000\n"
    errors = errors_of(text)
    assert any("exceeds uplink capacity" in e for e in errors)


def test_round_trip_identity():
    cfg = baseline_config()
    assert parse_config(serialize_config(cfg)) == cfg

    custom = parse_config(
        MINIMAL
        + "\nmodel = poisson_mix\nrate_kbps = 384.5\nsize_bytes = 64 1250\n"
        + "weight = 2.5\n"
    )
    assert parse_config(serialize_config(custom)) == custom


def test_empty_mode_list_is_an_error():
    text = MINIMAL.replace("modes = ss1", "modes =")
    assert errors_of(text) == ["line 6: modes must list at least one value"]


def test_run_section_parsing():
    text = """
[frame]
capacity_bytes = 16000

[run]
modes = all
frames = 50
seeds = 3 1 4
rhos = 0.5 1.0
window_ms = 500
warmup = 0.2
drop_expired = on
trace = on
outdir = somewhere

[connection]
cid = 7
ss = 2
class = be
"""
    cfg = parse_config(text)
    assert cfg.modes == (SimMode.SS1, SimMode.SS2, SimMode.GPC)
    assert cfg.frames == 50
    assert cfg.seeds == (3, 1, 4)
    assert cfg.rhos == (0.5, 1.0)
    assert cfg.window_ms == 500.0
    assert cfg.warmup == 0.2
    assert cfg.drop_expired is True
    assert cfg.trace is True
    assert cfg.outdir == "somewhere"


def test_shipped_scenarios_parse():
    from pathlib import Path

    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(scenario_dir.glob("*.cfg"))
    assert len(files) >= 6
    for path in files:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert cfg.scenario.conns


def test_error_messages_are_pinned():
    # every message, in order, exactly as the scenario parser has always
    # worded it; the two files cover the parse stage and the validation stage
    parse_stage = """\
stray = 1
[frame]
duration_ms = x
capacity_bytes = 1.5
not a pair
[nonsense]
[run]
modes = ss1 bogus
frames = ten
seeds =
rhos = -1 0.5
window_ms = 0
warmup = 1
trace = maybe
bogus = 1
trace = on
[connection]
cid = 0
class = be
[connection]
cid = 1
ss = 0
class = hyper
[connection]
cid = x
ss = 0
class = rtps
weight = w
model = bursty
[connection]
cid = 3
ss = 0
class = nrtps
min_reserved_kbps = lo
max_sustained_kbps = hi
model = cbr
rate_kbps = 64
[connection]
cid = 4
ss = 0
class = be
rate_kbps = 64
on_ms = 5
[connection]
cid = 5
ss = 0
class = be
model = poisson_mix
rate_kbps = fast
size_bytes = 1 2 3
"""
    assert errors_of(parse_stage) == [
        "line 1: stray appears outside any section",
        "line 5: expected 'key = value', got 'not a pair'",
        "line 6: unknown section [nonsense]",
        "line 15: unknown key 'bogus' in [run]",
        "line 16: duplicate key 'trace'",
        "line 3: duration_ms must be a number, got 'x'",
        "line 4: capacity_bytes must be an integer, got '1.5'",
        "line 17: connection is missing required key ss",
        "line 23: unknown service class 'hyper'",
        "line 25: cid must be an integer, got 'x'",
        "line 28: weight must be a number, got 'w'",
        "line 29: unknown traffic model 'bursty'",
        "line 35: max_sustained_kbps must be a number, got 'hi'",
        "line 34: min_reserved_kbps must be a number, got 'lo'",
        "line 36: cid 3: an explicit model needs rate_kbps and size_bytes",
        "line 42: cid 4: rate_kbps requires an explicit model",
        "line 43: cid 4: on_ms requires an explicit model",
        "line 49: rate_kbps must be a number, got 'fast'",
        "line 50: size_bytes takes one or two values",
        "line 8: unknown mode 'bogus'",
        "line 9: frames must be an integer, got 'ten'",
        "line 9: frames must be > 0",
        "line 10: seeds must list at least one value",
        "line 11: rhos must be >= 0",
        "line 12: window_ms must be > 0",
        "line 13: warmup must be in [0, 1)",
        "line 14: trace must be on/off, got 'maybe'",
    ]
    validation_stage = """\
[frame]
capacity_bytes = 1000
[connection]
cid = 0
ss = 0
class = rtps
max_sustained_kbps = 256
min_reserved_kbps = 512
weight = 0
[connection]
cid = 1
ss = 0
class = ugs
min_reserved_kbps = 64
model = onoff
rate_kbps = -1
size_bytes = 1200 900
on_ms = 0
"""
    assert errors_of(validation_stage) == [
        "cid 0: rtps connection requires max_latency_ms",
        "cid 0: weight must be > 0, got 0.0",
        "cid 0: min_reserved_kbps 512.0 exceeds max_sustained_kbps 256.0",
        "cid 1: ugs connection requires max_sustained_kbps",
        "cid 1: ugs connection must not set min_reserved_kbps",
        "cid 0: packet size 1250 exceeds uplink capacity 1000 bytes/frame",
        "cid 1: traffic mean rate must be > 0",
        "cid 1: packet size range must satisfy 1 <= lo <= hi",
        "cid 1: on/off mean durations must be > 0",
    ]


EVERY_FLOAT_KEY = """
[frame]
duration_ms = 10
bandwidth_mhz = 4.3
capacity_bytes = 16000

[run]
rhos = 0.5 1.0
window_ms = 500
warmup = 0.2

[connection]
cid = 0
ss = 0
class = rtps
max_sustained_kbps = 1024
min_reserved_kbps = 512
max_latency_ms = 20
weight = 4
model = onoff
rate_kbps = 1024
size_bytes = 100 1250
on_ms = 500
off_ms = 400
"""


def test_non_finite_numbers_rejected_with_their_line():
    parse_config(EVERY_FLOAT_KEY)
    lines = EVERY_FLOAT_KEY.splitlines()
    float_keys = ("duration_ms", "bandwidth_mhz", "rhos", "window_ms", "warmup",
                  "max_sustained_kbps", "min_reserved_kbps", "max_latency_ms",
                  "weight", "rate_kbps", "on_ms", "off_ms")
    for key in float_keys:
        line_no = next(n for n, line in enumerate(lines, start=1)
                       if line.startswith(f"{key} ="))
        for bad in ("nan", "inf", "-inf", "1e999", "0.5 NaN"):
            if " " in bad and key != "rhos":
                continue
            text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", EVERY_FLOAT_KEY,
                          flags=re.M)
            token = bad.split()[-1]
            assert (f"line {line_no}: {key} must be finite, got {token!r}"
                    in errors_of(text)), (key, bad)
