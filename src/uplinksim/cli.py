"""Command-line front end: run a scenario matrix and emit CSV results.

Exit status: 0 on success, 2 for configuration problems, 3 for runtime or
I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import ExitStack
from itertools import product
from pathlib import Path

from .config import (
    ConfigError,
    ScenarioConfig,
    baseline_config,
    override_run,
    parse_config,
)
from .engine import RunResult, SimMode, draw_streams, run
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
    """The unique (mode, seed, rho) cells in output order: mode label, then
    seed, then rho.  Of equal cells the first spelling is kept."""
    return sorted(dict.fromkeys(product(cfg.modes, cfg.seeds, cfg.rhos)),
                  key=lambda cell: (cell[0].value, cell[1], cell[2]))


def run_matrix(cfg: ScenarioConfig):
    """Execute every cell in ``matrix_cells`` order; failures are collected
    per cell, not fatal to the rest of the matrix.  Returns (results,
    errors), each in that order.

    A cell's traffic depends on its seed and rho only, so the modes of a
    (seed, rho) stream share it: the first of them draws it, and it is
    dropped after its last mode has run.  A draw that raises keeps
    nothing, so each later mode of that stream draws it again.
    """
    results: dict[tuple[SimMode, int, float], RunResult] = {}
    errors: dict[tuple[SimMode, int, float], Exception] = {}
    cells = matrix_cells(cfg)
    modes_left = Counter((seed, rho) for _, seed, rho in cells)
    drawn: dict[tuple[int, float], dict] = {}
    for mode, seed, rho in cells:
        key = (seed, rho)
        try:
            if key not in drawn:
                drawn[key] = draw_streams(cfg.scenario, cfg.frames, seed, rho)
            results[(mode, seed, rho)] = run(
                cfg.scenario, mode, cfg.frames, seed=seed, rho=rho,
                drop_expired=cfg.drop_expired, streams=drawn[key],
            )
        except Exception as exc:
            errors[(mode, seed, rho)] = exc
        modes_left[key] -= 1
        if not modes_left[key]:
            drawn.pop(key, None)
    return results, errors


def _num(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _write_classes(f, prefix: str, sample) -> None:
    """One row per class of ``sample``: ``prefix``, the class label and the
    five statistics columns (delay, violation rate, throughput, then the
    cell-wide utilization and jfi)."""
    cell_wide = f",{sample.utilization:.6f},{_num(sample.jfi)}\n"
    for cls, stats in sample.per_class.items():
        f.write(f"{prefix}{cls.label},{_num(stats.mean_delay_ms)},"
                f"{_num(stats.violation_rate)},{stats.throughput_kbps:.6f}"
                f"{cell_wide}")


def _write_packets(f, cell: str, result: RunResult) -> None:
    """Each connection's rows as two formatted chunks: the exited prefix,
    then the packets still queued.  ``%.6f`` prints a float as the ``.6f``
    format of the other CSV columns does; the row prefix holds only numbers
    and labels, never a ``%``."""
    for spec in result.conns:
        row = f"{cell}{spec.cid},{spec.ss_id},{spec.service_class.label},"
        log = result.logs[spec.cid]
        exited = len(log.departure)
        # a dropped packet's NaN departure prints as ``nan``
        f.write("".join(map((row + "%d,%.6f,%.6f,0\n").__mod__,
                            zip(log.size, log.arrival, log.departure)))
                .replace(",nan,0\n", ",,1\n"))
        f.write("".join(map((row + "%d,%.6f,,0\n").__mod__,
                            zip(log.size[exited:], log.arrival[exited:]))))


_HEADERS = {
    "summary.csv":
        "# one row per (mode, seed, rho, service class), post-warm-up aggregates\n"
        "# utilization and jfi are cell-wide, repeated on each class row\n"
        "# empty delay/violation fields mean no packet was delivered\n"
        "mode,seed,rho,service_class,mean_delay_ms,"
        "delay_violation_rate,throughput_kbps,utilization,jfi\n",
    "timeseries.csv":
        "# one row per (mode, seed, rho, window, service class)\n"
        "# windows tile the post-warm-up region\n"
        "mode,seed,rho,window_start_ms,service_class,mean_delay_ms,"
        "delay_violation_rate,throughput_kbps,utilization,jfi\n",
    "packets.csv":
        "# every generated packet; empty departure = still queued at run "
        "end, dropped = discarded on deadline expiry\n"
        "mode,seed,rho,cid,ss,service_class,size_bytes,"
        "arrival_ms,departure_ms,dropped\n",
}


def write_outputs(results, cfg: ScenarioConfig, outdir: str | Path) -> list[Path]:
    """Write summary.csv and timeseries.csv (plus packets.csv with trace on),
    the cells in the order of ``results``.

    Row order and number formatting are fixed, so reruns of the same config
    are byte-identical.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = list(_HEADERS)[:3 if cfg.trace else 2]
    written = [outdir / name for name in names]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8",
                                          newline="\n"))
                 for path in written]
        for f, name in zip(files, names):
            f.write(_HEADERS[name])
        summary, series, *trace = files
        for (mode, seed, rho), result in results.items():
            cell = f"{mode.value},{seed},{rho:.6f},"
            _write_classes(summary, cell,
                           run_summary(result, warmup_fraction=cfg.warmup))
            for sample in window_metrics(result, cfg.window_ms, cfg.warmup):
                _write_classes(series, f"{cell}{sample.window_start_ms:.6f},",
                               sample)
            if trace:
                _write_packets(trace[0], cell, result)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
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
    for (mode, seed, rho), exc in errors.items():
        print(f"error: run {mode.value} seed={seed} rho={rho} failed: {exc}",
              file=sys.stderr)
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
