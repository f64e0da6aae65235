import gc
import math
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import uplinksim
from conftest import SCENARIOS
from uplinksim import cli, engine
from uplinksim.cli import (
    apply_overrides,
    build_parser,
    main,
    matrix_cells,
    run_matrix,
    write_outputs,
)
from uplinksim.config import ConfigError, baseline_config, parse_config
from uplinksim.engine import ScenarioError, SimMode, Simulation, draw_streams

SMALL = """
[frame]
capacity_bytes = 16000

[run]
modes = ss1 ss2 gpc
frames = 200
seeds = 1 2 3 4 5
rhos = 1.0

[connection]
cid = 0
ss = 0
class = ugs

[connection]
cid = 1
ss = 0
class = nrtps

[connection]
cid = 2
ss = 0
class = be
"""


def test_matrix_cardinality_and_dedup():
    cfg = parse_config(SMALL)
    assert len(matrix_cells(cfg)) == 15  # 3 modes x 5 seeds x 1 rho

    dup = replace(cfg, seeds=(1, 1, 2), modes=(SimMode.SS1, SimMode.SS1))
    assert len(matrix_cells(dup)) == 2


def test_run_matrix_and_summary_rows(tmp_path):
    cfg = parse_config(SMALL)
    results, errors = run_matrix(cfg)
    assert not errors
    assert len(results) == 15
    write_outputs(results, cfg, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#") and "," in l][1:]
    assert len(data) == 15 * 3  # three classes configured


def test_outputs_byte_identical_across_reruns(tmp_path):
    cfg = parse_config(SMALL)
    results, _ = run_matrix(cfg)
    write_outputs(results, cfg, tmp_path / "a")
    results2, _ = run_matrix(cfg)
    write_outputs(results2, cfg, tmp_path / "b")
    for name in ("summary.csv", "timeseries.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so the order of str-keyed sets, change with
    # PYTHONHASHSEED from one process to the next, which a rerun inside one
    # process never varies
    src = str(Path(uplinksim.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "uplinksim", "--mode", "all", "--frames", "100",
             "--seeds", "1", "--rho", "1.4", "--trace", "--drop-expired",
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120)
        outs.append(out)
    packets = (outs[0] / "packets.csv").read_text().splitlines()
    assert any(line.endswith(",1") for line in packets)  # some packet dropped
    for name in ("summary.csv", "timeseries.csv", "packets.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "results"
    code = main([
        "--config", str(cfg_path), "--mode", "ss1", "--frames", "100",
        "--seeds", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "timeseries.csv").exists()
    assert not (out / "packets.csv").exists()


def test_cli_trace_flag_writes_packets(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "results"
    code = main([
        "--config", str(cfg_path), "--mode", "gpc", "--frames", "50",
        "--seeds", "2", "--out", str(out), "--trace",
    ])
    assert code == 0
    trace = (out / "packets.csv").read_text().splitlines()
    header = [l for l in trace if l.startswith("mode,")][0]
    assert "departure_ms" in header and "dropped" in header


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[frame]\nnot_a_key = 1\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_undecodable_config_exit_code(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + SMALL.encode("utf-16-le"))
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_cli_reads_a_recipe_saved_with_a_bom_and_crlf(tmp_path):
    # some editors save UTF-8 with a byte-order mark and CRLF line ends;
    # the mark was read as part of the first line, which failed to parse
    plain = SCENARIOS / "baseline-4ss.cfg"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    for path, out in ((plain, "plain"), (bom, "bom")):
        assert main(["--config", str(path), "--frames", "20", "--seeds", "1",
                     "--out", str(tmp_path / out)]) == 0
    for name in ("summary.csv", "timeseries.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name


def with_run_key(key, value):
    """SMALL with one [run] key set, replacing its line if present."""
    text = re.sub(rf"^{key} = .*\n", "", SMALL, flags=re.M)
    return text.replace("[run]\n", f"[run]\n{key} = {value}\n")


# (flag, [run] key, flag text, file text): command-line lists are
# comma-separated, file lists whitespace-separated
BAD_VALUES = [
    ("--frames", "frames", "-5", "-5"),
    ("--frames", "frames", "0", "0"),
    ("--frames", "frames", "ten", "ten"),
    ("--frames", "frames", "", ""),
    ("--seeds", "seeds", "x,y", "x y"),
    ("--seeds", "seeds", "1.5", "1.5"),
    ("--rho", "rhos", "-1", "-1"),
    ("--rho", "rhos", "0.5,x", "0.5 x"),
    ("--rho", "rhos", "nan", "nan"),
    ("--rho", "rhos", "inf", "inf"),
    ("--rho", "rhos", "0.5,-inf", "0.5 -inf"),
    ("--rho", "rhos", "1e999", "1e999"),
]
GOOD_VALUES = [
    ("--mode", "modes", "all", "all"),
    ("--mode", "modes", "gpc", "gpc"),
    ("--frames", "frames", "50", "50"),
    ("--seeds", "seeds", "3,1,4", "3 1 4"),
    ("--rho", "rhos", "0.5,1.25", "0.5 1.25"),
    ("--out", "outdir", "somewhere", "somewhere"),
    ("--trace", "trace", None, "on"),
    ("--drop-expired", "drop_expired", None, "on"),
]


def test_cli_flag_validation(tmp_path, monkeypatch, capsys):
    # no cell runs: a bad flag stops at parse_config, which is checked
    # directly, by the same per-key rules as a scenario file
    monkeypatch.delenv("SIM_OUT", raising=False)
    parser = build_parser()
    for flag, key, flag_text, file_text in BAD_VALUES:
        flags = apply_overrides(parser.parse_args([f"{flag}={flag_text}"]))
        assert flags == {key: (flag_text, flag)}
        with pytest.raises(ConfigError) as info:
            parse_config(SMALL, flags)
        assert all(e.startswith(f"{flag}: {key} ") for e in info.value.errors)
        with pytest.raises(ConfigError):
            parse_config(with_run_key(key, file_text))
    for flag, key, flag_text, file_text in GOOD_VALUES:
        argv = [flag] if flag_text is None else [flag, flag_text]
        by_flag = parse_config(SMALL, apply_overrides(parser.parse_args(argv)))
        assert by_flag == parse_config(with_run_key(key, file_text)), flag

    assert main(["--frames", "-5"]) == 2
    assert main(["--seeds", "x,y"]) == 2
    assert main(["--rho", "-1"]) == 2
    assert main(["--rho", "nan"]) == 2
    # an outdir a scenario file cannot hold is refused, as in code
    assert main(["--out", " x "]) == 2
    monkeypatch.setenv("SIM_OUT", "a\rb")
    assert main([]) == 2
    monkeypatch.delenv("SIM_OUT")
    # one no path can hold is refused from the file, before any cell runs
    nul = tmp_path / "nul.cfg"
    nul.write_text(with_run_key("outdir", "a\0b"))
    monkeypatch.setattr(cli, "run", None)
    capsys.readouterr()
    assert main(["--config", str(nul)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 6: outdir must not hold a NUL byte\n")
    with pytest.raises(SystemExit) as info:
        main(["--mode", "bogus"])
    assert info.value.code == 2


def test_cli_empty_modes_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(with_run_key("modes", ""))
    assert main(["--config", str(cfg_path)]) == 2
    assert "modes must list at least one value" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    blocked = tmp_path / "blocked"
    blocked.write_text("a plain file where a directory must go")
    code = main([
        "--config", str(cfg_path), "--mode", "ss1", "--frames", "20",
        "--seeds", "1", "--out", str(blocked),
    ])
    assert code == 3


def test_sim_out_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("SIM_OUT", str(env_dir))
    code = main(["--config", str(cfg_path), "--mode", "ss1",
                 "--frames", "50", "--seeds", "1"])
    assert code == 0
    assert (env_dir / "summary.csv").exists()


def test_rho_sweep_utilization_rises_until_saturation(tmp_path):

    cfg = replace(
        baseline_config(),
        modes=(SimMode.SS1,), seeds=(1,), frames=1500,
        rhos=(0.25, 0.5, 1.0, 1.4),
    )
    results, errors = run_matrix(cfg)
    assert not errors
    from uplinksim.metrics import run_summary

    utils = [
        run_summary(results[(SimMode.SS1, 1, rho)]).utilization
        for rho in cfg.rhos
    ]
    for lo, hi in zip(utils, utils[1:]):
        assert hi >= lo - 0.01


# sha256 of the CLI's CSVs for the built-in cell, all modes, seed 1, rho 1.2,
# 400 frames, 500 ms windows, trace on; keyed by --drop-expired.  Output may
# change only with a bug fix that the change log names, together with these.
PINNED_DIGESTS = {
    False: {
        "summary.csv":
            "b4623309ef4e07e2d4b0f1e5bedde6cbe545be9357e70927d6214133b67e1f3d",
        "timeseries.csv":
            "ba2992cbeb5de50297e67f8dc27cf552968eeded8871da6772674403afddd8fc",
        "packets.csv":
            "cff5295849872f33b2bbcc4a03b0ea0afd76227b06c8bda7bb921f570a67f963",
    },
    True: {
        "summary.csv":
            "64a4db69e613ad36f6d2822a06a663db2c6f7100bd96b73ee0f13985ebcf9467",
        "timeseries.csv":
            "ee4bb6fa179d4016b95d24918c9b7f22d5220591c4c8affc01a4e853bdd1870f",
        "packets.csv":
            "2a326c88fb82a8c8b9ea4133607046abedf808875d1be5ffd7e9fad2fe2ab015",
    },
}


def test_cli_outputs_match_pinned_digests(tmp_path):
    import hashlib

    from uplinksim.config import serialize_config

    cfg = replace(baseline_config(), frames=400, seeds=(1,), rhos=(1.2,),
                  window_ms=500.0)
    cfg_path = tmp_path / "pinned.cfg"
    cfg_path.write_text(serialize_config(cfg))
    for drop_expired, expected in PINNED_DIGESTS.items():
        out = tmp_path / f"drop{int(drop_expired)}"
        argv = ["--config", str(cfg_path), "--mode", "all", "--trace",
                "--out", str(out)]
        assert main(argv + ["--drop-expired"] * drop_expired) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in expected}
        assert digests == expected, f"drop_expired={drop_expired}"


def test_connection_order_does_not_change_outputs(tmp_path):
    # every station holds one connection of each class, stations interleave
    # in cid order, and the [connection] sections are listed in reverse: the
    # per-cell allocation plan and station partitions must still give the
    # sorted twin's bytes, through a file and through the API

    from uplinksim.config import serialize_config

    base = baseline_config()
    specs = tuple(replace(s, ss_id=(s.cid // 4 + s.cid) % 4)
                  for s in base.scenario.conns)
    cfg = replace(base, scenario=replace(base.scenario, conns=specs),
                  frames=300, seeds=(3,), rhos=(1.3,), window_ms=500.0)
    text = serialize_config(cfg)
    head, *sections = text.split("\n[connection]\n")
    reverse_text = head + "".join("\n[connection]\n" + s for s in reversed(sections))
    cids = [int(m) for m in re.findall(r"^cid = (\d+)$", reverse_text, re.M)]
    assert cids == sorted(cids, reverse=True) and len(cids) == 16
    reverse_cfg = replace(cfg, scenario=replace(cfg.scenario,
                                                conns=tuple(reversed(specs))))

    names = ("summary.csv", "timeseries.csv", "packets.csv")
    for drop in (False, True):
        outs = {}
        for label, body in (("sorted", text), ("reverse", reverse_text)):
            path = tmp_path / f"{label}.cfg"
            path.write_text(body)
            out = tmp_path / f"{label}-{drop}"
            argv = ["--config", str(path), "--mode", "all", "--trace",
                    "--out", str(out)]
            assert main(argv + ["--drop-expired"] * drop) == 0
            outs[label] = out
        api = replace(reverse_cfg, drop_expired=drop, trace=True)
        results, errors = run_matrix(api)
        assert not errors
        outs["api"] = tmp_path / f"api-{drop}"
        write_outputs(results, api, outs["api"])
        for name in names:
            expected = (outs["sorted"] / name).read_bytes()
            assert (outs["reverse"] / name).read_bytes() == expected, name
            assert (outs["api"] / name).read_bytes() == expected, name


def test_cells_run_and_write_in_sorted_order(tmp_path):
    def config(**run_keys):
        text = SMALL
        for key, value in {"frames": "40", **run_keys}.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        return parse_config(text)

    unsorted = config(modes="ss2 gpc ss1", seeds="3 1", rhos="1.2 0.8 1.2")
    expected = [(mode, seed, rho)
                for mode in (SimMode.GPC, SimMode.SS1, SimMode.SS2)
                for seed in (1, 3) for rho in (0.8, 1.2)]
    assert matrix_cells(unsorted) == expected
    outs = {}
    for label, cfg in (("unsorted", unsorted),
                       ("sorted", config(modes="gpc ss1 ss2", seeds="1 3",
                                         rhos="0.8 1.2"))):
        results, errors = run_matrix(cfg)
        assert not errors and list(results) == expected
        outs[label] = tmp_path / label
        write_outputs(results, cfg, outs[label])
    for name in ("summary.csv", "timeseries.csv"):
        assert (outs["unsorted"] / name).read_bytes() == \
            (outs["sorted"] / name).read_bytes(), name


def test_negative_zero_rho_is_zero(tmp_path):
    cfg = parse_config(SMALL.replace("rhos = 1.0", "rhos = -0"))
    assert cfg.rhos == (0.0,) and math.copysign(1.0, cfg.rhos[0]) == 1.0
    out = tmp_path / "results"
    assert main(["--mode", "ss1", "--frames", "20", "--seeds", "1",
                 "--rho=-0,0", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    rows = [l for l in lines if l.startswith("ss1,")]
    assert rows and all(l.startswith("ss1,1,0.000000,") for l in rows)


def test_each_stream_is_drawn_once_per_matrix(monkeypatch):
    drawn = Counter()
    draw_stream = engine.draw_stream

    def spy(conn, model, frame, rho, seed, frames):
        drawn[(seed, rho, conn.cid)] += 1
        return draw_stream(conn, model, frame, rho, seed, frames)

    monkeypatch.setattr(engine, "draw_stream", spy)
    for modes, seeds, rhos in (("ss1 ss2 gpc", "1 2", "0.8 1.2"),
                               ("ss2", "1 2 3 4 5", "1.0")):
        drawn.clear()
        cfg = parse_config(SMALL.replace("frames = 200", "frames = 40")
                           .replace("modes = ss1 ss2 gpc", f"modes = {modes}")
                           .replace("seeds = 1 2 3 4 5", f"seeds = {seeds}")
                           .replace("rhos = 1.0", f"rhos = {rhos}"))
        results, errors = run_matrix(cfg)
        assert not errors and len(results) == len(matrix_cells(cfg))
        assert drawn == Counter(product(cfg.seeds, cfg.rhos, (0, 1, 2)))


def test_modes_share_each_streams_columns():
    cfg = replace(baseline_config(), frames=100, seeds=(1, 2), rhos=(1.4,),
                  modes=tuple(SimMode), drop_expired=True)
    results, errors = run_matrix(cfg)
    assert not errors and len(results) == 6
    for seed in cfg.seeds:
        fresh = draw_streams(cfg.scenario, cfg.frames, seed, 1.4)
        cells = [results[(mode, seed, 1.4)] for mode in SimMode]
        for spec, stream in zip(cfg.scenario.conns, fresh.streams):
            logs = [cell.logs[spec.cid] for cell in cells]
            assert all(log.size is logs[0].size and log.arrival is logs[0].arrival
                       for log in logs)
            # after every mode ran, the shared columns are still as drawn
            assert logs[0].size.tobytes() == stream.size.tobytes()
            assert logs[0].arrival.tobytes() == stream.arrival.tobytes()
    assert any(math.isnan(d) for result in results.values()
               for log in result.logs.values() for d in log.departure)


def test_a_failed_draw_fails_each_mode_of_its_stream(tmp_path, monkeypatch,
                                                      capsys):
    # a draw that raises keeps nothing: each mode of seed 2 draws again and
    # fails on its own, and the seed-1 cells run as in a clean matrix
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    args = ["--config", str(cfg_path), "--frames", "60", "--seeds", "1,2"]
    assert main(args + ["--out", str(tmp_path / "clean")]) == 0
    draw_streams_of = cli.draw_streams
    attempts = Counter()

    def faulty(scenario, frames, seed, rho):
        attempts[seed] += 1
        if seed == 2:
            raise RuntimeError("draw fault")
        return draw_streams_of(scenario, frames, seed, rho)

    monkeypatch.setattr(cli, "draw_streams", faulty)
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "faulty")]) == 3
    failed = [l for l in capsys.readouterr().err.splitlines()
              if l.startswith("error: run ")]
    assert failed == [f"error: run {mode} seed=2 rho=1.0 failed: draw fault"
                      for mode in ("gpc", "ss1", "ss2")]
    assert attempts == {1: 1, 2: 3}
    for name in ("summary.csv", "timeseries.csv"):
        clean = (tmp_path / "clean" / name).read_text().splitlines()
        assert (tmp_path / "faulty" / name).read_text().splitlines() == [
            l for l in clean if not re.match(r"\w+,2,", l)], name
    # with every cell failed, nothing is written
    assert main(args[:-1] + ["2", "--out", str(tmp_path / "none")]) == 3
    assert not (tmp_path / "none").exists()


def test_each_result_is_let_go_once_written(tmp_path, monkeypatch):
    # the CLI writes each cell's rows as it finishes, so when a cell starts
    # no earlier cell's result, and so none of its logs, is still held
    refs, held = [], []
    run_cell = cli.run

    def spy(*args, **kwargs):
        gc.collect()
        held.append(sum(ref() is not None for ref in refs))
        result = run_cell(*args, **kwargs)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run", spy)
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    assert main(["--config", str(cfg_path), "--frames", "40", "--seeds", "1,2",
                 "--trace", "--out", str(tmp_path / "out")]) == 0
    gc.collect()
    held.append(sum(ref() is not None for ref in refs))
    assert held == [0] * 7


def test_an_invalid_scenario_fails_each_cell_before_any_draw(monkeypatch):
    # an empty size range would make the draw raise ValueError; the
    # scenario's own checks report it first, when the scenario is built,
    # so no cell of any matrix can receive it
    cfg = parse_config(SMALL.replace("frames = 200", "frames = 20"))
    (ugs, *rest) = cfg.scenario.conns
    bad = replace(ugs.traffic, size_lo=400, size_hi=300)
    monkeypatch.setattr(engine, "draw_stream", None)  # never reached
    with pytest.raises(ScenarioError) as info:
        replace(cfg.scenario, conns=(replace(ugs, traffic=bad), *rest))
    assert info.value.problems == [
        "cid 0: packet size range must satisfy 1 <= lo <= hi"]


def test_a_matrix_never_rechecks_its_scenario(monkeypatch):
    cfg = parse_config(SMALL.replace("frames = 200", "frames = 20")
                       .replace("seeds = 1 2 3 4 5", "seeds = 1 2"))
    calls = []
    problems = engine.Scenario.problems

    def counted(scenario):
        calls.append(scenario)
        return problems(scenario)

    monkeypatch.setattr(engine.Scenario, "problems", counted)
    results, errors = run_matrix(cfg)
    assert not errors and len(results) == 6  # 3 modes x 2 seeds
    assert calls == []


def test_a_failed_recording_leaves_no_record(tmp_path, monkeypatch, capsys):
    # gpc, the first mode, records every stream and fails halfway; ss1 must
    # then draw the streams afresh, not replay half a record
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(SMALL)
    args = ["--config", str(cfg_path), "--frames", "100", "--seeds", "1,2"]
    assert main(args + ["--out", str(tmp_path / "clean")]) == 0
    step = Simulation.step

    def faulty(sim):
        if sim.mode is SimMode.GPC and sim.frame_index == 50:
            raise RuntimeError("fault in frame 50")
        return step(sim)

    monkeypatch.setattr(Simulation, "step", faulty)
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "faulty")]) == 3
    failed = [l for l in capsys.readouterr().err.splitlines()
              if l.startswith("error: run ")]
    assert failed == [f"error: run gpc seed={seed} rho=1.0 failed: fault in "
                      "frame 50" for seed in (1, 2)]
    for name in ("summary.csv", "timeseries.csv"):
        clean = (tmp_path / "clean" / name).read_text().splitlines()
        assert (tmp_path / "faulty" / name).read_text().splitlines() == [
            l for l in clean if not l.startswith("gpc,")], name
