"""Command-line front end: run a scenario matrix and emit CSV results.

Exit status: 0 on success, 2 for configuration problems, 3 for runtime or
I/O failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    ScenarioConfig,
    baseline_config,
    override_run,
    parse_config,
)
from .engine import RunResult, SimMode, run
from .metrics import run_summary, window_metrics


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplinksim",
        description="Frame-driven uplink scheduling simulator; flags override "
        "config values.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="scenario file (built-in 4-station cell if omitted)")
    parser.add_argument("--mode", choices=["ss1", "ss2", "gpc", "all"],
                        help="scheduler mode(s) to run")
    parser.add_argument("--frames", metavar="N",
                        help="frames per run")
    parser.add_argument("--seeds", metavar="LIST",
                        help="comma-separated seeds, e.g. 1,2,3")
    parser.add_argument("--rho", metavar="LIST",
                        help="comma-separated traffic intensities, e.g. 0.5,1.0")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--trace", action="store_true",
                        help="also write the per-packet trace (packets.csv)")
    parser.add_argument("--drop-expired", action="store_true",
                        help="drop delay-bounded packets that passed their deadline")
    return parser


def apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """Flag > SIM_OUT environment variable > config file.

    Each value is checked by the scenario file's rules for its [run] key,
    with lists comma-separated; an empty --seeds, --rho or --out counts as
    not given.
    """
    given = {}
    if os.environ.get("SIM_OUT"):
        given["outdir"] = (os.environ["SIM_OUT"], "SIM_OUT")
    for flag, key, text in (
        ("--mode", "modes", args.mode),
        ("--frames", "frames", args.frames),
        ("--seeds", "seeds", args.seeds or None),
        ("--rho", "rhos", args.rho or None),
        ("--out", "outdir", args.out or None),
        ("--trace", "trace", "on" if args.trace else None),
        ("--drop-expired", "drop_expired", "on" if args.drop_expired else None),
    ):
        if text is not None:
            given[key] = (text, flag)
    return override_run(cfg, given)


def matrix_cells(cfg: ScenarioConfig) -> list[tuple[SimMode, int, float]]:
    """Unique (mode, seed, rho) cells in a stable order."""
    cells = []
    seen = set()
    for mode in cfg.modes:
        for seed in cfg.seeds:
            for rho in cfg.rhos:
                cell = (mode, seed, rho)
                if cell not in seen:
                    seen.add(cell)
                    cells.append(cell)
    return cells


def run_matrix(cfg: ScenarioConfig):
    """Execute every cell; failures are collected per cell, not fatal to
    the rest of the matrix.  Returns (results, errors)."""
    results: dict[tuple[SimMode, int, float], RunResult] = {}
    errors: dict[tuple[SimMode, int, float], Exception] = {}
    for mode, seed, rho in matrix_cells(cfg):
        try:
            results[(mode, seed, rho)] = run(
                cfg.scenario, mode, cfg.frames, seed=seed, rho=rho,
                drop_expired=cfg.drop_expired,
            )
        except Exception as exc:
            errors[(mode, seed, rho)] = exc
    return results, errors


def _num(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _sorted_cells(results):
    return sorted(results, key=lambda c: (c[0].value, c[1], c[2]))


def write_outputs(results, cfg: ScenarioConfig, outdir: str | Path) -> list[Path]:
    """Write summary.csv and timeseries.csv (plus packets.csv with trace on).

    Row order and number formatting are fixed, so reruns of the same config
    are byte-identical.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    summary_path = outdir / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("# one row per (mode, seed, rho, service class), "
                "post-warm-up aggregates\n")
        f.write("# utilization and jfi are cell-wide, repeated on each class row\n")
        f.write("# empty delay/violation fields mean no packet was delivered\n")
        f.write("mode,seed,rho,service_class,mean_delay_ms,"
                "delay_violation_rate,throughput_kbps,utilization,jfi\n")
        for cell in _sorted_cells(results):
            result = results[cell]
            summary = run_summary(result, warmup_fraction=cfg.warmup)
            for cls in sorted(summary.per_class, key=lambda c: c.label):
                stats = summary.per_class[cls]
                f.write(
                    f"{cell[0].value},{cell[1]},{cell[2]:.6f},{cls.label},"
                    f"{_num(stats.mean_delay_ms)},{_num(stats.violation_rate)},"
                    f"{stats.throughput_kbps:.6f},{summary.utilization:.6f},"
                    f"{_num(summary.jfi)}\n"
                )
    written.append(summary_path)

    series_path = outdir / "timeseries.csv"
    with open(series_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("# one row per (mode, seed, rho, window, service class)\n")
        f.write("# windows tile the post-warm-up region\n")
        f.write("mode,seed,rho,window_start_ms,service_class,mean_delay_ms,"
                "delay_violation_rate,throughput_kbps,utilization,jfi\n")
        for cell in _sorted_cells(results):
            result = results[cell]
            for sample in window_metrics(result, cfg.window_ms, cfg.warmup):
                for cls in sorted(sample.per_class, key=lambda c: c.label):
                    stats = sample.per_class[cls]
                    f.write(
                        f"{cell[0].value},{cell[1]},{cell[2]:.6f},"
                        f"{sample.window_start_ms:.6f},{cls.label},"
                        f"{_num(stats.mean_delay_ms)},{_num(stats.violation_rate)},"
                        f"{stats.throughput_kbps:.6f},{sample.utilization:.6f},"
                        f"{_num(sample.jfi)}\n"
                    )
    written.append(series_path)

    if cfg.trace:
        trace_path = outdir / "packets.csv"
        with open(trace_path, "w", encoding="utf-8", newline="\n") as f:
            f.write("# every generated packet; empty departure = still queued "
                    "at run end, dropped = discarded on deadline expiry\n")
            f.write("mode,seed,rho,cid,ss,service_class,size_bytes,"
                    "arrival_ms,departure_ms,dropped\n")
            for cell in _sorted_cells(results):
                result = results[cell]
                for spec in result.conns:
                    row = (f"{cell[0].value},{cell[1]},{cell[2]:.6f},"
                           f"{spec.cid},{spec.ss_id},{spec.service_class.label},")
                    log = result.logs[spec.cid]
                    # the exited prefix (NaN departure = dropped), then
                    # the packets still queued
                    for size, arrival, dep in zip(log.size, log.arrival,
                                                  log.departure):
                        if math.isnan(dep):
                            f.write(f"{row}{size},{arrival:.6f},,1\n")
                        else:
                            f.write(f"{row}{size},{arrival:.6f},{dep:.6f},0\n")
                    exited = len(log.departure)
                    for size, arrival in zip(log.size[exited:],
                                             log.arrival[exited:]):
                        f.write(f"{row}{size},{arrival:.6f},,0\n")
        written.append(trace_path)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
                return 2
            cfg = parse_config(text)
        else:
            cfg = baseline_config()
        cfg = apply_overrides(cfg, args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    results, errors = run_matrix(cfg)
    for cell, exc in sorted(errors.items(),
                            key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])):
        print(f"error: run {cell[0].value} seed={cell[1]} rho={cell[2]} "
              f"failed: {exc}", file=sys.stderr)
    if not results:
        return 3
    try:
        written = write_outputs(results, cfg, cfg.outdir)
    except OSError as exc:
        print(f"error: writing outputs failed: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 3 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
