import math
import re
import time
from dataclasses import replace

import pytest

from conftest import SCENARIOS, recipe
from uplinksim import engine
from uplinksim.cli import main
from uplinksim.config import (
    ConfigError,
    baseline_config,
    baseline_scenario,
    parse_config,
    serialize_config,
)
from uplinksim.engine import (
    MAX_CELL_WORK,
    ScenarioError,
    SimMode,
    burst_steps,
    frame_work,
)
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


def test_builtin_cell_equals_its_recipe():
    # plain ``uplinksim`` without --config runs baseline_config(), the
    # acceptance suite runs the recipe; they may differ only in outdir
    cfg = recipe("baseline-4ss")
    assert cfg == replace(baseline_config(), outdir=cfg.outdir)


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
    # each section but [connection] appears at most once: a repeat used to
    # merge into the first, and its keys are still checked against it
    repeated = """\
[frame]
duration_ms = 10
[run]
frames = 20
[frame]
capacity_bytes = 16000
duration_ms = 10
[run]
seeds = 3
[connection]
cid = 0
ss = 0
class = rtps
"""
    assert errors_of(repeated) == [
        "line 5: duplicate section [frame]",
        "line 7: duplicate key 'duration_ms'",
        "line 8: duplicate section [run]",
    ]


def test_validation_runs_at_parse_time():
    # reservations exceed the configured capacity
    text = MINIMAL.replace("capacity_bytes = 16000", "capacity_bytes = 500")
    errors = errors_of(text)
    assert any("reserved sum exceeds" in e for e in errors)


def test_oversized_traffic_rejected_at_parse_time():
    text = MINIMAL + "\nmodel = poisson_bulk\nrate_kbps = 64\nsize_bytes = 64000\n"
    errors = errors_of(text)
    assert any("exceeds uplink capacity" in e for e in errors)


def test_packet_sizes_beyond_the_log_column_rejected_at_parse_time():
    # a finished run logs sizes in a signed 64-bit column; a larger size is
    # a config error even when the capacity would admit it
    text = MINIMAL.replace("capacity_bytes = 16000",
                           f"capacity_bytes = {2**64}")
    model = "\nmodel = cbr\nrate_kbps = 64\nsize_bytes = {}\n"
    parse_config(text + model.format(2**63 - 1))
    assert errors_of(text + model.format(2**63)) == [
        "cid 0: packet size 9223372036854775808 exceeds the packet log's "
        "9223372036854775807 bytes"
    ]


def test_round_trip_identity():
    cfg = baseline_config()
    assert parse_config(serialize_config(cfg)) == cfg

    custom = parse_config(
        MINIMAL
        + "\nmodel = poisson_mix\nrate_kbps = 384.5\nsize_bytes = 64 1250\n"
        + "weight = 2.5\n"
    )
    assert parse_config(serialize_config(custom)) == custom
    assert "model = poisson\n" in serialize_config(custom)


def test_cbr_takes_one_packet_size(tmp_path, capsys):
    # a cbr source emits fixed-size packets, so a range would silently
    # shrink to its low end
    text = MINIMAL + "model = cbr\nrate_kbps = 256\nsize_bytes = 64 1250\n"
    assert errors_of(text) == ["cid 0: a cbr model takes one packet size"]
    path = tmp_path / "cbr-range.cfg"
    path.write_text(text)
    assert main(["--config", str(path)]) == 2
    assert "cid 0: a cbr model takes one packet size" in capsys.readouterr().err
    fixed = parse_config(text.replace("64 1250", "64"))
    assert fixed.scenario.conns[0].traffic.size_lo == 64


def test_ugs_packets_must_fit_the_unsolicited_grant(tmp_path, capsys):
    # the fixed grant is one frame of the sustained rate, 256 kbit/s x 10 ms
    # = 320 B; a larger packet never fits it and blocks its queue for good,
    # so the run delivered nothing and exited 0
    ugs = MINIMAL.replace("class = rtps", "class = ugs")
    cbr = ugs + "model = cbr\nrate_kbps = 256\nsize_bytes = 400\n"
    poisson = ugs + "model = poisson\nrate_kbps = 256\nsize_bytes = 64 1250\n"
    assert errors_of(cbr) == [
        "cid 0: ugs packet size 400 exceeds its unsolicited grant 320 bytes/frame"]
    assert errors_of(poisson) == [
        "cid 0: ugs packet size 1250 exceeds its unsolicited grant 320 bytes/frame"]
    path = tmp_path / "ugs-oversize.cfg"
    path.write_text(cbr)
    assert main(["--config", str(path)]) == 2
    assert "exceeds its unsolicited grant" in capsys.readouterr().err
    assert parse_config(cbr.replace("400", "320")).scenario.conns[0].traffic.size_hi == 320


def test_rates_overflowing_a_frame_are_config_errors(tmp_path, capsys):
    # 1e308 kbit/s is finite, but one 10 ms frame of it is not: every cell
    # failed with "cannot convert float infinity to integer" and exit 3
    for cls, key in (("ugs", "max_sustained_kbps"), ("be", "min_reserved_kbps")):
        text = MINIMAL.replace("class = rtps", f"class = {cls}") + f"{key} = 1e308\n"
        assert errors_of(text) == [
            f"cid 0: {key} must give a finite byte count per frame, got 1e+308"]
        path = tmp_path / f"{cls}-overflow.cfg"
        path.write_text(text)
        assert main(["--config", str(path)]) == 2
        assert f"config error: cid 0: {key}" in capsys.readouterr().err
        assert parse_config(text.replace("1e308", "1000")).scenario.conns[0].cid == 0


def test_an_invalid_scenario_cannot_be_built():
    # the problems that construction raises are the ones parse_config reports
    text = MINIMAL.replace("capacity_bytes = 16000", "capacity_bytes = 500")
    scenario = parse_config(MINIMAL).scenario
    with pytest.raises(ScenarioError) as info:
        replace(scenario, frame=replace(scenario.frame, uplink_capacity_bytes=500))
    assert info.value.problems == errors_of(text) != []


FIVE_FRAMES = MINIMAL.replace("frames = 100", "frames = 5")
ONOFF = FIVE_FRAMES + ("model = onoff\nrate_kbps = {rate}\nsize_bytes = 100 1250\n"
                       "on_ms = {on}\noff_ms = {off}\n")


@pytest.mark.parametrize("text, flags, per_frame", [
    # Poisson 1e308 kbit/s: one frame's mean overflowed, exit 3 in every cell
    (FIVE_FRAMES.replace("class = rtps", "class = be")
     + "model = poisson\nrate_kbps = 1e308\nsize_bytes = 64 1250\n", [], "inf"),
    # onoff 1e30 kbit/s: its packet loop stopped advancing time and filled memory
    (ONOFF.format(rate=1e30, on=5, off=1), [], "1.85e+27"),
    # onoff phases of 1e-300 ms never advanced time in the phase loop
    (ONOFF.format(rate=1024, on=1e-300, off=1e-300), [], "1e+301"),
    # the built-in cell: about 2e297 Poisson chunks per frame
    (None, ["--mode", "ss1", "--frames", "5", "--rho", "1e300"], "1.56e+301"),
    # each distinct rho is checked once: a repeated rho printed its message twice
    (None, ["--mode", "ss1", "--frames", "5", "--rho", "1e300,1e300"], "1.56e+301"),
], ids=["poisson-1e308", "onoff-1e30", "onoff-phases-1e-300", "builtin-rho-1e300",
        "builtin-rho-1e300-twice"])
def test_loads_no_cell_could_draw_are_refused_at_once(monkeypatch, tmp_path, capsys,
                                                     text, flags, per_frame):
    # the refusal is arithmetic: without it a cell fails, it does not hang
    monkeypatch.setattr(engine, "draw_stream", None)
    args = ["--out", str(tmp_path / "out"), *flags]
    if text is not None:
        (tmp_path / "load.cfg").write_text(text)
        args += ["--config", str(tmp_path / "load.cfg")]
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    rho = "1e+300" if flags else "1.0"
    assert capsys.readouterr().err == (
        f"config error: rho {rho} over 5 frames: each frame would cost "
        f"{per_frame} connection passes, packets and on/off phase changes, "
        f"above the ceiling of {MAX_CELL_WORK} per cell\n")
    assert not (tmp_path / "out").exists()


def test_idle_connection_frames_count_toward_the_ceiling(monkeypatch, tmp_path,
                                                         capsys):
    # a connection costs an 8 B count and a pass through the frame loop in
    # every frame, drawing or not: a trillion frames of one idle cbr or
    # near-idle poisson source passed, to run for months
    monkeypatch.setattr(engine, "draw_stream", None)
    trillion = MINIMAL.replace("frames = 100", "frames = 1000000000000")
    cbr = trillion.replace("class = rtps", "class = ugs").replace(
        "seeds = 1", "seeds = 1\nrhos = 0")
    poisson = (trillion.replace("class = rtps", "class = be")
               + "model = poisson\nrate_kbps = 0.001\nsize_bytes = 64 1250\n")
    for text, rho in ((cbr, "0.0"), (poisson, "1.0")):
        (tmp_path / "idle.cfg").write_text(text)
        start = time.perf_counter()
        assert main(["--config", str(tmp_path / "idle.cfg"),
                     "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"config error: rho {rho} over 1000000000000 frames: each frame "
            f"would cost 1 connection passes, packets and on/off phase "
            f"changes, above the ceiling of {MAX_CELL_WORK} per cell\n")
        assert not (tmp_path / "out").exists()


def test_the_work_ceiling_leaves_the_shipped_cells_100x_headroom():
    # the largest is fig2-delay and fig4-violation at rho 1.2: about 3.9e5
    largest = max(cfg.frames * frame_work(cfg.scenario, rho)
                  for cfg in map(recipe, (p.stem for p in SCENARIOS.glob("*.cfg")))
                  for rho in cfg.rhos)
    assert 3.8e5 < largest < MAX_CELL_WORK / 100
    # one frame more than the ceiling allows is refused when the matrix is
    # built, for the rho that needs it only, and flagged rhos are checked too
    cfg = baseline_config()
    frames = int(MAX_CELL_WORK / frame_work(cfg.scenario, 1.0))
    replace(cfg, frames=frames, rhos=(1.0,))
    with pytest.raises(ConfigError) as info:
        replace(cfg, frames=frames + 1, rhos=(1.0, 1e-9))
    assert len(info.value.errors) == 1
    with pytest.raises(ConfigError, match=r"^rho 1e\+300 over 3000 frames"):
        parse_config(serialize_config(cfg), {"rhos": ("1,1e300", "--rho")})


def test_an_onoff_burst_finer_than_the_clock_is_refused_at_once(monkeypatch, tmp_path,
                                                                capsys):
    # 1000 kbit/s in bursts of duty 1e-12 accrue a 100 B packet every
    # 8e-13 ms, below one ULP of the 20000 ms clock: the packet loop
    # appended packets at one instant until memory ran out
    monkeypatch.setattr(engine, "draw_stream", None)
    text = (MINIMAL.replace("frames = 100", "frames = 2000")
            + "model = onoff\nrate_kbps = 1000\nsize_bytes = 100\n"
              "on_ms = 1e-9\noff_ms = 1000\n")
    (tmp_path / "burst.cfg").write_text(text)
    start = time.perf_counter()
    assert main(["--config", str(tmp_path / "burst.cfg"),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "config error: rho 1.0 over 2000 frames: cid 0's on/off bursts accrue "
        "its smallest packet in 8e-13 ms, not above the clock's resolution of "
        "3.64e-12 ms\n")
    assert not (tmp_path / "out").exists()
    # the step scales with 1 / rho: checked per rho, and rho 0 draws nothing
    with pytest.raises(ConfigError) as info:
        parse_config(text.replace("frames = 2000", "frames = 5"),
                     {"rhos": ("0,1,200", "--rho")})
    assert [e.split(":")[0] for e in info.value.errors] == ["rho 200.0 over 5 frames"]


def test_flags_replace_the_file_values_before_any_check(monkeypatch, tmp_path,
                                                       capsys):
    # flags join the file's [run] section before the one build, so they
    # rescue a file whose own frames are above the ceiling, and a refusal
    # names the values that would run; both used to be checked on the file
    fig4 = (SCENARIOS / "fig4-violation.cfg").read_text(encoding="utf-8")
    assert "frames = 10000\n" in fig4
    for name, frames in (("huge", "100000000"), ("small", "50")):
        (tmp_path / f"{name}.cfg").write_text(fig4.replace("frames = 10000",
                                                           f"frames = {frames}"))
    cell = ["--seeds", "1", "--mode", "ss1"]
    assert main(["--config", str(tmp_path / "huge.cfg"), "--frames", "50", *cell,
                 "--out", str(tmp_path / "huge")]) == 0
    assert main(["--config", str(tmp_path / "small.cfg"), *cell,
                 "--out", str(tmp_path / "small")]) == 0
    for name in ("summary.csv", "timeseries.csv"):
        assert (tmp_path / "huge" / name).read_bytes() == \
            (tmp_path / "small" / name).read_bytes(), name
    capsys.readouterr()
    monkeypatch.setattr(engine, "draw_stream", None)
    assert main(["--config", str(tmp_path / "huge.cfg"), "--rho", "0.5",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rho 0.5 over 100000000 frames: ")
    assert err.count("\n") == 1 and "rho 1.0" not in err and "rho 1.2" not in err
    assert not (tmp_path / "out").exists()


def test_a_matrix_built_in_code_is_checked(monkeypatch):
    # ``replace`` builds a matrix as a file does: 1e300 built with 1.56e301
    # work units per frame, and frames = 0 raised ZeroDivisionError
    monkeypatch.setattr(engine, "draw_stream", None)
    cfg = baseline_config()
    for fields in ({"rhos": (1e300,)}, {"frames": 10**12}):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="above the ceiling"):
            replace(cfg, **fields)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ConfigError) as info:
        replace(cfg, frames=0)
    assert info.value.errors == ["frames must be > 0"]
    with pytest.raises(ConfigError) as info:
        replace(cfg, rhos=(math.nan, 1.0))
    assert info.value.errors == ["rhos must be >= 0"]
    # each of these built, though its file text was refused: 0.01 ms
    # windows made 90,000 windows of one 100-frame cell, rho -1 failed every
    # cell at the draw, and an empty list ran nothing
    for fields, errors in (
        ({"window_ms": 0.01, "frames": 100},
         ["window_ms 0.01 is shorter than the frame duration 10.0 ms"]),
        ({"rhos": (-1.0,)}, ["rhos must be >= 0"]),
        ({"modes": ()}, ["modes must list at least one value"]),
        ({"seeds": ()}, ["seeds must list at least one value"]),
        ({"rhos": ()}, ["rhos must list at least one value"]),
        ({"warmup": 1.5}, ["warmup must be in [0, 1)"]),
        ({"window_ms": -1.0}, ["window_ms must be > 0"]),
        ({"window_ms": math.nan}, ["window_ms must be > 0"]),
        ({"warmup": math.nan}, ["warmup must be in [0, 1)"]),
        # a file's text cannot hold these outdirs: line breaks split the
        # line, and the parser strips it
        ({"outdir": "a\nb"}, ["outdir must not hold a line break"]),
        ({"outdir": "a\x85b"}, ["outdir must not hold a line break"]),
        ({"outdir": " x "}, ["outdir must not start or end with whitespace"]),
        # a file can hold this one, but no path can
        ({"outdir": "a\0b"}, ["outdir must not hold a NUL byte"]),
        # each built with a value of another type: a mode's label failed the
        # writers, a float or bool seed ran, and the rest failed or built
        # values their text does not read back as
        ({"modes": ("ss1",)}, ["modes must be a tuple of modes"]),
        ({"seeds": (1.5,)}, ["seeds must be a tuple of integers"]),
        ({"seeds": (True,)}, ["seeds must be a tuple of integers"]),
        ({"seeds": [1]}, ["seeds must be a tuple of integers"]),
        ({"frames": True}, ["frames must be an integer"]),
        ({"rhos": ("1.0",)}, ["rhos must be a tuple of numbers"]),
        ({"rhos": (True,)}, ["rhos must be a tuple of numbers"]),
        ({"window_ms": "500"}, ["window_ms must be a number"]),
        ({"warmup": None}, ["warmup must be a number"]),
        ({"trace": "yes"}, ["trace must be a bool"]),
        ({"drop_expired": 1}, ["drop_expired must be a bool"]),
        ({"outdir": 5}, ["outdir must be a string"]),
        # these raised AttributeError from the window check
        ({"scenario": None}, ["scenario must be a Scenario"]),
        ({"scenario": cfg.scenario.frame}, ["scenario must be a Scenario"]),
        # every field's rules are checked before the window and the ceiling
        ({"modes": (), "frames": 1.5, "rhos": (1e300,), "window_ms": 0.01},
         ["modes must list at least one value", "frames must be an integer"]),
    ):
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            replace(cfg, **fields)
        assert time.perf_counter() - start < 1.0
        assert info.value.errors == errors, fields


def test_the_shipped_onoff_bursts_clear_the_clock_resolution_100x():
    margin = min(step / math.ulp(cfg.frames * cfg.scenario.frame.frame_duration_ms)
                 for cfg in map(recipe, (p.stem for p in SCENARIOS.glob("*.cfg")))
                 for rho in cfg.rhos
                 for step in burst_steps(cfg.scenario, rho).values())
    assert margin >= 100


def test_a_zero_deficit_round_quantum_is_refused():
    # 0.5 kbit/s is 0.625 B per 10 ms frame: the quantum floored to 0, and
    # the deficit round visited the queue forever without sending
    be = MINIMAL.replace("class = rtps", "class = be\nmin_reserved_kbps = {rate}")
    nrtps = MINIMAL.replace("class = rtps", "class = nrtps\nmin_reserved_kbps = 0.5\n"
                                            "max_sustained_kbps = {rate}")
    for text in (be, nrtps):
        assert errors_of(text.format(rate=0.5)) == [
            "cid 0: deficit-round quantum rounds to 0 bytes/frame"]
        assert parse_config(text.format(rate=0.8)).scenario.conns[0].cid == 0  # 1 B


def test_on_off_durations_require_the_onoff_model():
    durations = "rate_kbps = 256\nsize_bytes = 64\non_ms = 5\noff_ms = 7\n"
    for model in ("cbr", "poisson"):
        assert errors_of(MINIMAL + f"model = {model}\n" + durations) == [
            "line 17: cid 0: on_ms requires model = onoff",
            "line 18: cid 0: off_ms requires model = onoff",
        ]
    onoff = parse_config(MINIMAL + "model = onoff\n" + durations)
    traffic = onoff.scenario.conns[0].traffic
    assert (traffic.mean_on_ms, traffic.mean_off_ms) == (5.0, 7.0)
    assert parse_config(serialize_config(onoff)) == onoff


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
    files = sorted(SCENARIOS.glob("*.cfg"))
    assert len(files) >= 5
    for path in files:
        assert recipe(path.stem).scenario.conns


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


def test_a_bad_class_or_model_hides_no_other_bad_value():
    # every value of a section is parsed before its keys are joined, so an
    # unknown class or model, or a key its model does not read, no longer
    # keeps the section's other values from being checked
    sections = """\
[connection]
cid = 0
ss = 0
class = hyper
weight = w
[connection]
cid = 1
ss = 0
class = be
model = bursty
rate_kbps = fast
[connection]
cid = 2
ss = 0
class = be
rate_kbps = fast
[connection]
class = be
"""
    assert errors_of(sections) == [
        "line 4: unknown service class 'hyper'",
        "line 5: weight must be a number, got 'w'",
        "line 10: unknown traffic model 'bursty'",
        "line 11: rate_kbps must be a number, got 'fast'",
        "line 16: rate_kbps must be a number, got 'fast'",
        "line 16: cid 2: rate_kbps requires an explicit model",
        "line 17: connection is missing required key cid",
        "line 17: connection is missing required key ss",
    ]


def test_windows_shorter_than_a_frame_rejected_at_parse_time():
    # packets depart only at frame ends, so a shorter window adds nothing
    # but rows: 100 frames at window_ms = 0.01 made 90,000 windows
    def with_window(window):
        return MINIMAL.replace("[run]\n", f"[run]\nwindow_ms = {window}\n")

    assert errors_of(with_window(0.01)) == [
        "line 6: window_ms 0.01 is shorter than the frame duration 10.0 ms",
    ]
    assert parse_config(with_window(10)).window_ms == 10.0
    # the default 1000 ms window against a longer frame: the message points
    # at the frame duration
    long_frame = MINIMAL.replace("capacity_bytes = 16000",
                                 "duration_ms = 2000\ncapacity_bytes = 1000000")
    assert errors_of(long_frame) == [
        "line 3: window_ms 1000.0 is shorter than the frame duration 2000.0 ms",
    ]
    long_frame = long_frame.replace("[run]\n", "[run]\nwindow_ms = 2000\n")
    assert parse_config(long_frame).window_ms == 2000.0


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
