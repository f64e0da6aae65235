"""Command-line front end: run a scenario matrix and emit CSV results.

Exit status: 0 on success, 2 for configuration problems, 3 for runtime or
I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from itertools import product
from pathlib import Path

from .config import (
    ConfigError,
    ScenarioConfig,
    baseline_config,
    parse_config,
    serialize_config,
)
from .engine import CellStreams, RunResult, SimMode, draw_streams, run
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


def apply_overrides(args) -> dict[str, tuple[str, str]]:
    """{[run] key: (text, where)} of the flags and SIM_OUT, which replace
    the config file's: flag > SIM_OUT environment variable > config file.
    An empty --seeds, --rho or --out counts as not given.
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
    return given


def matrix_cells(cfg: ScenarioConfig) -> list[tuple[SimMode, int, float]]:
    """The unique (mode, seed, rho) cells in output order: mode label, then
    seed, then rho.  Of equal cells the first spelling is kept."""
    return sorted(dict.fromkeys(product(cfg.modes, cfg.seeds, cfg.rhos)),
                  key=lambda cell: (cell[0].value, cell[1], cell[2]))


def cells(cfg: ScenarioConfig):
    """Run every cell in ``matrix_cells`` order, yielding (cell, its
    ``RunResult`` or the exception it raised): a failed cell does not stop
    the rest of the matrix.  No result is kept once it is yielded.

    A cell's traffic depends on its seed and rho only, so the modes of a
    (seed, rho) stream share it: the first of them draws it.  The cells are
    mode-major over a full product, so each stream's last cell is the last
    mode's, and that cell drops it.  A draw that raises keeps nothing, so
    each later mode of that stream draws it again.
    """
    order = matrix_cells(cfg)
    last_mode = order[-1][0]
    drawn: dict[tuple[int, float], CellStreams] = {}
    for cell in order:
        mode, seed, rho = cell
        try:
            if (seed, rho) not in drawn:
                drawn[seed, rho] = draw_streams(cfg.scenario, cfg.frames, seed, rho)
            outcome = run(cfg.scenario, mode, cfg.frames, seed=seed, rho=rho,
                          drop_expired=cfg.drop_expired, streams=drawn[seed, rho])
        except Exception as exc:
            outcome = exc
        if mode is last_mode:
            drawn.pop((seed, rho), None)
        yield cell, outcome
        del outcome  # before the next cell runs


def run_matrix(cfg: ScenarioConfig):
    """``cells`` gathered as (results, errors), each a dict by cell in
    ``matrix_cells`` order."""
    results: dict[tuple[SimMode, int, float], RunResult] = {}
    errors: dict[tuple[SimMode, int, float], Exception] = {}
    for cell, outcome in cells(cfg):
        (errors if isinstance(outcome, Exception) else results)[cell] = outcome
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


def write_cells(pairs, cfg: ScenarioConfig, outdir: str | Path) -> list[Path]:
    """Write summary.csv and timeseries.csv (plus packets.csv with trace on),
    the rows of each (cell, ``RunResult``) of ``pairs`` in its order, and
    return the paths written.  The files are opened at the first pair, so
    without one nothing is written and the list is empty; no result is
    kept once its rows are written.

    Row order and number formatting are fixed, so reruns of the same config
    are byte-identical.
    """
    outdir = Path(outdir)
    written: list[Path] = []
    with ExitStack() as stack:
        for (mode, seed, rho), result in pairs:
            if not written:
                outdir.mkdir(parents=True, exist_ok=True)
                names = list(_HEADERS)[:3 if cfg.trace else 2]
                written = [outdir / name for name in names]
                files = [stack.enter_context(open(path, "w", encoding="utf-8",
                                                  newline="\n"))
                         for path in written]
                for f, name in zip(files, names):
                    f.write(_HEADERS[name])
                summary, series, *trace = files
            cell = f"{mode.value},{seed},{rho:.6f},"
            _write_classes(summary, cell,
                           run_summary(result, warmup_fraction=cfg.warmup))
            for sample in window_metrics(result, cfg.window_ms, cfg.warmup):
                _write_classes(series, f"{cell}{sample.window_start_ms:.6f},",
                               sample)
            if trace:
                _write_packets(trace[0], cell, result)
            del result  # before the next cell runs
    return written


def write_outputs(results, cfg: ScenarioConfig, outdir: str | Path) -> list[Path]:
    """``write_cells`` over ``results``, a dict by cell."""
    return write_cells(results.items(), cfg, outdir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = (Path(args.config).read_text(encoding="utf-8-sig") if args.config
                else serialize_config(baseline_config()))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, apply_overrides(args))
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    failed = 0

    def ran(pair) -> bool:
        """False, once reported, for a cell that raised."""
        nonlocal failed
        (mode, seed, rho), outcome = pair
        if isinstance(outcome, Exception):
            print(f"error: run {mode.value} seed={seed} rho={rho} failed: "
                  f"{outcome}", file=sys.stderr)
            failed += 1
            return False
        return True

    try:
        written = write_cells(filter(ran, cells(cfg)), cfg, cfg.outdir)
    except OSError as exc:
        print(f"error: writing outputs failed: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 3 if failed or not written else 0


if __name__ == "__main__":
    raise SystemExit(main())
