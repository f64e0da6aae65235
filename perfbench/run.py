#!/usr/bin/env python3
"""uplinksim benchmark: time the CLI's own pipeline on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the simulator is imported from its
``src/`` directory, never from an installed copy.  One process, no threads:
each repeat runs ``cli.run_matrix`` (which calls ``engine.run`` per cell)
and ``cli.write_outputs`` into a scratch directory under ``perfbench/out``,
exactly as ``uplinksim --config`` would, on a scenario text that
``workloads.scenario_text`` makes from the seed.

Every time is host time, rescaled by ``calibrate.reference_seconds`` timed
between the measured steps: seconds on a host that runs the reference model
in ``calibrate.REFERENCE_S`` (see ``calibrate.py`` for why).  The unscaled
median wall time is printed too.  ``--trace 0`` reports the end-to-end
metrics:

* ``setup_s``: ``import uplinksim`` plus ``parse_config`` of the scenario,
  median over fresh interpreters (``child.py``).
* ``wall_s``: ``run_matrix`` + ``write_outputs``, median over repeats.
* ``conn_frames_per_s``: sum over cells of connections x frames, divided by
  the ``run_matrix`` time (a loop over ``engine.run``), median over repeats.
* ``peak_rss_mb``: peak resident set of a fresh process that ran only this
  workload once (``child.py``).

``--trace 1`` alternates untraced repeats with repeats traced through
``spans.instrument`` and reports the per-layer metrics (medians over traced
repeats), plus ``trace.overhead_ratio``; the spans of the last traced
repeat are written to ``perfbench/out/spans-<workload>-seed<N>.csv`` once
the run is over.

Every cell of every repeat is checked (``invariants.check_cell``) and its
CSVs must hash equal to the first, checked repeat; a cell that raises or
fails counts in ``failed`` and the command exits 1.  Simulated statistics
are deterministic and printed as an ungated fingerprint.  The last stdout
line is the JSON result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
PARSE_REPEATS = 9
MIN_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "conn_frames_per_s": "conn_frame/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "config.parse_s": "s",
    "traffic.generate_s": "s",
    "traffic.packets": "count",
    "traffic.us_per_packet": "us",
    "bs_alloc.phase1_s": "s",
    "bs_alloc.phase2_s": "s",
    "bs_alloc.pool_s": "s",
    "bs_alloc.alloc_s": "s",
    "bs_alloc.contended_ratio": "ratio",
    "bs_alloc.phase2_bytes_ratio": "ratio",
    "kernels.waterfill_s": "s",
    "kernels.waterfill_calls": "count",
    "kernels.edf_take_s": "s",
    "kernels.edf_take_calls": "count",
    "kernels.dfpq_take_s": "s",
    "kernels.dfpq_take_calls": "count",
    "ss_sched.ss1_s": "s",
    "ss_sched.schedule_s": "s",
    "ss_sched.ugs_s": "s",
    "ss_sched.edf_s": "s",
    "ss_sched.drr_s": "s",
    "ss_sched.packets_sent": "count",
    "ss_sched.grant_used_ratio": "ratio",
    "engine.step_s": "s",
    "engine.self_s": "s",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.used_ratio": "ratio",
    "engine.history_packets": "count",
    "engine.queued_packets_end": "count",
    "metrics.summary_s": "s",
    "metrics.windows_s": "s",
    "cli.write_outputs_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


def _load_program():
    """Put the checkout's ``src`` first on the import path and import the
    simulator from there; raises when the sources are missing."""
    if not (SRC / "uplinksim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no simulator sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uplinksim

    if Path(uplinksim.__file__).resolve().parent != SRC / "uplinksim":
        raise ImportError(f"uplinksim imported from {uplinksim.__file__}, "
                          f"not from {SRC}")


def _child(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class Repeat:
    """One run of the matrix and its outputs."""

    def __init__(self, cfg, outdir, tracer=None):
        from uplinksim import cli

        from spans import instrument

        run_matrix, write_outputs = cli.run_matrix, cli.write_outputs
        with instrument(tracer) if tracer else nullcontext():
            if tracer:
                run_matrix = tracer.wrap("cli.run_matrix", run_matrix)
                write_outputs = tracer.wrap("cli.write_outputs", write_outputs)
            t0 = time.perf_counter()
            self.results, self.errors = run_matrix(cfg)
            t1 = time.perf_counter()
            self.written = write_outputs(self.results, cfg, outdir)
            t2 = time.perf_counter()
        self.tracer = tracer
        self.wall_s = t2 - t0
        self.matrix_s = t1 - t0

    def failures(self, digests) -> tuple[int, list[str]]:
        """(failed cells, messages): cells that raised, cells the invariant
        check rejects, and every cell when a CSV differs from ``digests``."""
        from invariants import check_cell, csv_digests

        messages = [f"{mode.value} seed={seed} rho={rho}: run raised {exc!r}"
                    for (mode, seed, rho), exc in self.errors.items()]
        failed = len(self.errors)
        t = self.tracer
        for (mode, seed, rho), result in self.results.items():
            key = (mode.value, seed, rho)
            problems = (check_cell(result, t.phase1.get(key), t.phase2.get(key),
                                   t.generated.get(key))
                        if t is not None else check_cell(result))
            if problems:
                failed += 1
                messages += [f"{mode.value} seed={seed} rho={rho}: {p}"
                             for p in problems[:5]]
        if csv_digests(self.written) != digests:
            failed = len(self.results) + len(self.errors)
            messages.append("CSV outputs differ from the first repeat's")
        return failed, messages

    def counts(self) -> dict[str, float]:
        results = self.results.values()
        granted = sum(sum(r.granted) for r in results)
        used = sum(sum(r.used) for r in results)
        return {
            "engine.used_ratio": used / granted,
            "engine.history_packets": sum(
                len(h) for r in results for h in r.history.values()),
            "engine.queued_packets_end": sum(
                1 for r in results for h in r.history.values() for p in h
                if p.departure_time is None and not p.dropped),
            "cli.bytes_written": sum(Path(p).stat().st_size for p in self.written),
            "bs_alloc.phase2_bytes_ratio": sum(
                sum(v) for v in self.tracer.phase2.values()) / granted,
        }


def layer_times(tracer) -> dict[str, float]:
    """Per-layer times and counters of one traced repeat."""
    tot = tracer.totals()

    def span(name):
        return tot.get(name, (0.0, 0.0, 0))

    def total(name):
        return span(name)[0]

    c = tracer.counts
    return {
        "traffic.generate_s": total("traffic.generate"),
        "traffic.us_per_packet": total("traffic.generate") * 1e6
        / c["traffic.packets"],
        "bs_alloc.phase1_s": total("bs_alloc.phase1"),
        "bs_alloc.phase2_s": total("bs_alloc.phase2"),
        "bs_alloc.pool_s": total("bs_alloc.pool"),
        "bs_alloc.alloc_s": total("bs_alloc.phase1") + total("bs_alloc.phase2")
        + total("bs_alloc.pool") + span("bs_alloc.gpc")[1],
        "kernels.waterfill_s": total("kernels.waterfill"),
        "kernels.edf_take_s": total("kernels.edf_take"),
        "kernels.dfpq_take_s": total("kernels.dfpq_take"),
        "ss_sched.ss1_s": total("ss_sched.ss1"),
        "ss_sched.schedule_s": total("ss_sched.ss1") + total("ss_sched.ss2"),
        "ss_sched.ugs_s": total("ss_sched.ugs"),
        "ss_sched.edf_s": total("ss_sched.edf"),
        "ss_sched.drr_s": total("ss_sched.drr"),
        "engine.step_s": total("engine.step"),
        "engine.self_s": span("engine.step")[1],
        "metrics.summary_s": total("metrics.summary"),
        "metrics.windows_s": total("metrics.windows"),
        "cli.write_outputs_s": total("cli.write_outputs"),
        "kernels.waterfill_calls": span("kernels.waterfill")[2],
        "kernels.edf_take_calls": span("kernels.edf_take")[2],
        "kernels.dfpq_take_calls": span("kernels.dfpq_take")[2],
        "traffic.packets": c["traffic.packets"],
        "bs_alloc.contended_ratio": c["bs_alloc.contended_frames"]
        / c["bs_alloc.frames"],
        "ss_sched.packets_sent": c["ss_sched.packets_sent"],
        "ss_sched.grant_used_ratio": c["ss_sched.sent_bytes"]
        / c["ss_sched.grant_bytes"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 frames: int | None = None, log=print) -> dict:
    """Measure one workload; returns the result object the command prints
    last.  ``frames`` shrinks the workload (for tests)."""
    _load_program()
    from uplinksim import _backend
    from uplinksim.config import parse_config

    from calibrate import REFERENCE_S, reference_seconds
    from invariants import csv_digests, fingerprint
    from spans import Tracer
    from workloads import scenario_text

    text = scenario_text(name, seed, frames)
    work = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scenario = work / "scenario.cfg"
        scenario.write_text(text, encoding="utf-8")
        log(f"workload {name} seed {seed} trace {int(trace)}")
        log("labels " + json.dumps({
            "backend": _backend.backend_name(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        }))

        attempted = failed = 0
        messages: list[str] = []
        metrics: dict[str, float] = {}
        refs = [reference_seconds()]

        def scale() -> float:
            """Rescale factor for what ran since the last reference pass."""
            refs.append(reference_seconds())
            return REFERENCE_S * 2 / (refs[-2] + refs[-1])

        if not trace:
            probe = _child(scenario, work / "rss")
            metrics["peak_rss_mb"] = probe["peak_rss_mb"]
            attempted, failed = probe["cells"], probe["cells_failed"]
            refs.append(reference_seconds())
            metrics["setup_s"] = statistics.median(
                _child(scenario)["setup_s"] * scale() for _ in range(SETUP_REPEATS))
        t0 = time.perf_counter()
        for _ in range(PARSE_REPEATS):
            cfg = parse_config(text)
        parse_s = (time.perf_counter() - t0) / PARSE_REPEATS * scale()
        outdir = work / "csv"

        def timed(tracer=None) -> Repeat:
            rep = Repeat(cfg, outdir, tracer)
            rep.scale = scale()
            return rep

        # the first repeat is traced, so it can be checked in full, and
        # fixes the CSV digests every later repeat must reproduce
        first = timed(Tracer())
        expected = csv_digests(first.written)
        model = fingerprint(first.results, first.written, cfg.warmup)
        cells = len(first.results) + len(first.errors)
        log(f"cells {cells}")
        log("fingerprint " + json.dumps(model, sort_keys=True))
        n, msgs = first.failures(expected)
        attempted += cells
        failed += n
        messages += msgs

        plain: list[Repeat] = []
        traced: list[Repeat] = []
        refs.append(reference_seconds())
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(plain) < MIN_REPEATS
               or (trace and len(traced) < MIN_REPEATS)):
            rep = timed()
            if trace and not plain:
                untraced_model = fingerprint(rep.results, rep.written, cfg.warmup)
                if untraced_model != model:
                    failed += cells
                    messages.append("traced and untraced runs differ: "
                                    + json.dumps(untraced_model, sort_keys=True))
                refs.append(reference_seconds())
            plain.append(rep)
            if trace:
                traced.append(timed(Tracer()))
            for r in (plain[-1], traced[-1]) if trace else (plain[-1],):
                n, msgs = r.failures(expected)
                attempted += cells
                failed += n
                messages += msgs
                # results hold every packet; the counts come from ``first``
                r.results = r.errors = None
        log(f"cells_failed {failed} of {attempted} cell runs "
            f"({len(plain)} untraced, {len(traced)} traced repeats)")
        log(f"unscaled wall_s {statistics.median(r.wall_s for r in plain)} s, "
            f"reference model {statistics.median(refs)} s "
            f"(nominal {REFERENCE_S} s)")
        for msg in messages[:20]:
            print(f"check failed: {msg}", file=sys.stderr)

        if trace:
            layer = [{k: v * r.scale if PER_LAYER[k] in ("s", "us") else v
                      for k, v in layer_times(r.tracer).items()} for r in traced]
            metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
            metrics.update(first.counts())
            metrics["config.parse_s"] = parse_s
            steps = [d * r.scale * 1e6 for r in traced
                     for d in r.tracer.durations("engine.step")]
            metrics["engine.step_us_p50"] = statistics.median(steps)
            metrics["engine.step_us_p99"] = statistics.quantiles(steps, n=100)[98]
            metrics["trace.overhead_ratio"] = (
                statistics.median(r.wall_s * r.scale for r in traced)
                / statistics.median(r.wall_s * r.scale for r in plain))
            traced[-1].tracer.write_csv(OUT / f"spans-{name}-seed{seed}.csv")
            units = PER_LAYER
        else:
            conn_frames = sum(len(cfg.scenario.conns) * cfg.frames
                              for _ in first.results)
            metrics["wall_s"] = statistics.median(r.wall_s * r.scale for r in plain)
            metrics["conn_frames_per_s"] = statistics.median(
                conn_frames / (r.matrix_s * r.scale) for r in plain)
            units = END_TO_END
        for key, unit in units.items():
            log(f"{key} {metrics[key]} {unit}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
