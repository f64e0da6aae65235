"""In-memory span recorder wrapped around the simulator's layer entry points.

The benchmark records spans from its own files: while ``instrument`` is
active, the public functions each layer exposes (the names ``engine`` and
``cli`` import, the ``ss_sched`` module globals, ``TrafficSource.generate``
and the ``_backend.kernels`` module) are swapped for timing wrappers, and
restored afterwards.  Spans are kept in flat arrays and only aggregated or
written to disk after the run, so recording costs one append per field.

Alongside spans the wrappers keep the counters that the correctness check
and the per-layer ratios need: phase-1 and phase-2 bytes per frame,
contended frames, packets and bytes generated per connection, and the bytes
the station schedulers were granted and sent.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced matrix run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        # per cell (mode label, seed, rho): per-frame phase-1 / phase-2 bytes
        # and bytes generated per connection
        self.phase1: dict[tuple, list[int]] = {}
        self.phase2: dict[tuple, list[int]] = {}
        self.generated: dict[tuple, dict[int, int]] = {}
        self._cell = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args, out)`` runs
        once the span is closed."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            start[idx] = t0
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- counter hooks ------------------------------------------------------

    def _begin_cell(self, mode, seed, rho):
        key = (mode.value, seed, rho)
        self._cell = key
        self.phase1[key] = []
        self.phase2[key] = []
        self.generated[key] = defaultdict(int)

    def _after_generate(self, args, out):
        if out:
            self.counts["traffic.packets"] += len(out)
            self.generated[self._cell][args[0].conn.cid] += sum(p.size for p in out)

    def _after_phase1(self, args, out):
        self.phase1[self._cell].append(sum(out.allocated.values()))

    def _after_phase2(self, args, out):
        before, requests = args[0], args[1]
        self.phase2[self._cell].append(before.remaining - out.remaining)
        self.counts["bs_alloc.frames"] += 1
        if out.remaining == 0:
            # capacity ran out; contended unless demand matched it exactly
            unmet = (sum(r.requested_bytes for r in requests)
                     - sum(before.allocated.values()))
            if unmet > before.remaining:
                self.counts["bs_alloc.contended_frames"] += 1

    def _after_schedule(self, args, out):
        self.counts["ss_sched.packets_sent"] += len(out.entries)
        self.counts["ss_sched.grant_bytes"] += args[1]
        self.counts["ss_sched.sent_bytes"] += out.total_bytes

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total seconds, self seconds, calls).  Self time is
        a span's duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            dur = end[i] - start[i]
            total[nid] += dur
            own[nid] += dur - child[i]
            calls[nid] += 1
        return {name: (total[k], own[k], calls[k])
                for k, name in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i]
                for i, k in enumerate(self.name_id) if k == nid]

    def write_csv(self, path) -> None:
        """One row per span, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("id,parent,name,start_us,end_us\n")
            for i, nid in enumerate(self.name_id):
                f.write(f"{i},{self.parent[i]},{self.names[nid]},"
                        f"{(self.start[i] - t0) * 1e6:.3f},"
                        f"{(self.end[i] - t0) * 1e6:.3f}\n")


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer entry point through ``tracer`` for the duration."""
    from uplinksim import _backend, bs_alloc, cli, engine, ss_sched, traffic

    kernels = _backend.kernels
    proxy = types.SimpleNamespace(
        BACKEND=kernels.BACKEND,
        waterfill=tracer.wrap("kernels.waterfill", kernels.waterfill),
        edf_take=tracer.wrap("kernels.edf_take", kernels.edf_take),
        dfpq_take=tracer.wrap("kernels.dfpq_take", kernels.dfpq_take),
    )

    def begin_cell(fn):
        def run(scenario, mode, frames, seed=1, rho=1.0, **kwargs):
            tracer._begin_cell(mode, seed, rho)
            return fn(scenario, mode, frames, seed=seed, rho=rho, **kwargs)
        return run

    phase1 = tracer.wrap("bs_alloc.phase1", bs_alloc.phase1_guarantee,
                         tracer._after_phase1)
    phase2 = tracer.wrap("bs_alloc.phase2", bs_alloc.phase2_excess,
                         tracer._after_phase2)
    patches = [
        (_backend, "kernels", proxy),
        (cli, "run", begin_cell(tracer.wrap("engine.run", cli.run))),
        (cli, "run_summary", tracer.wrap("metrics.summary", cli.run_summary)),
        (cli, "window_metrics", tracer.wrap("metrics.windows", cli.window_metrics)),
        (engine.Simulation, "step",
         tracer.wrap("engine.step", engine.Simulation.step)),
        (traffic.TrafficSource, "generate",
         tracer.wrap("traffic.generate", traffic.TrafficSource.generate,
                     tracer._after_generate)),
        # allocate_gpc reaches the two phases through bs_alloc's globals
        (bs_alloc, "phase1_guarantee", phase1),
        (bs_alloc, "phase2_excess", phase2),
        (engine, "phase1_guarantee", phase1),
        (engine, "phase2_excess", phase2),
        (engine, "pool_gpss", tracer.wrap("bs_alloc.pool", engine.pool_gpss)),
        (engine, "allocate_gpc", tracer.wrap("bs_alloc.gpc", engine.allocate_gpc)),
        (engine, "schedule_frame_ss1",
         tracer.wrap("ss_sched.ss1", engine.schedule_frame_ss1,
                     tracer._after_schedule)),
        (engine, "schedule_frame_ss2",
         tracer.wrap("ss_sched.ss2", engine.schedule_frame_ss2,
                     tracer._after_schedule)),
        (ss_sched, "serve_ugs", tracer.wrap("ss_sched.ugs", ss_sched.serve_ugs)),
        (ss_sched, "serve_rtps_edf",
         tracer.wrap("ss_sched.edf", ss_sched.serve_rtps_edf)),
        (ss_sched, "dfpq_round", tracer.wrap("ss_sched.drr", ss_sched.dfpq_round)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)
