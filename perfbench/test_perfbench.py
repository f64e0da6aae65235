"""Tests of the benchmark itself:  python3 -m pytest perfbench

Tiny versions of every workload must report every metric with its unit, the
invariant check must reject corrupted results, and a seed must fix the
model outputs.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, scenario_text

run._load_program()

from uplinksim.config import parse_config  # noqa: E402

from invariants import check_cell, fingerprint  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_FRAMES = {"cell16-overload": 40, "cell16-light-trace": 40,
               "cell256-scaled": 12}


def _quiet(*_):
    pass


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace,
                              frames=TINY_FRAMES[name], log=_quiet)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
    json.dumps(result)


def _checked_repeat(name, seed, tmp_path, traced=True):
    cfg = parse_config(scenario_text(name, seed, frames=TINY_FRAMES[name]))
    return cfg, run.Repeat(cfg, tmp_path, Tracer() if traced else None)


def test_sound_cells_pass_the_check(tmp_path):
    _, rep = _checked_repeat("cell16-overload", 5, tmp_path)
    for (mode, seed, rho), result in rep.results.items():
        key = (mode.value, seed, rho)
        t = rep.tracer
        assert check_cell(result, t.phase1[key], t.phase2[key],
                          t.generated[key]) == []


def _first_departed(result):
    for cid in sorted(result.history):
        for pkt in result.history[cid]:
            if pkt.departure_time is not None:
                return pkt
    raise AssertionError("no packet departed")


def test_check_rejects_cleared_departure(tmp_path):
    _, rep = _checked_repeat("cell16-overload", 5, tmp_path, traced=False)
    result = next(iter(rep.results.values()))
    _first_departed(result).departure_time = None
    assert check_cell(result)


def test_check_rejects_packet_both_sent_and_dropped(tmp_path):
    _, rep = _checked_repeat("cell16-light-trace", 5, tmp_path, traced=False)
    result = next(iter(rep.results.values()))
    _first_departed(result).dropped = True
    assert any("generated" in p for p in check_cell(result))


def test_check_rejects_used_above_granted(tmp_path):
    _, rep = _checked_repeat("cell16-overload", 5, tmp_path, traced=False)
    result = next(iter(rep.results.values()))
    frame = next(f for f, u in enumerate(result.used) if u)
    bad = replace(result, granted=list(result.granted))
    bad.granted[frame] = result.used[frame] - 1
    assert any(p.startswith(f"frame {frame}:") for p in check_cell(bad))


def test_check_rejects_phase_split_mismatch_and_lost_traffic(tmp_path):
    _, rep = _checked_repeat("cell16-overload", 5, tmp_path)
    (mode, seed, rho), result = next(iter(rep.results.items()))
    key = (mode.value, seed, rho)
    t = rep.tracer
    phase2 = list(t.phase2[key])
    phase2[-1] += 1
    assert check_cell(result, t.phase1[key], phase2)
    generated = dict(t.generated[key])
    generated[0] += 1
    assert check_cell(result, t.phase1[key], t.phase2[key], generated)


def test_same_seed_same_fingerprint(tmp_path):
    prints = []
    for k, seed in enumerate((7, 7, 8)):
        cfg, rep = _checked_repeat("cell16-light-trace", seed, tmp_path / str(k),
                                   traced=k == 1)
        prints.append(fingerprint(rep.results, rep.written, cfg.warmup))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell16-overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
