"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its criterion holds (visible with
``pytest -s`` or in the captured output).  Criteria 1-4 and 9 run recipes
from ``scenarios/`` exactly as parsed, so the matrices users run are the
ones checked here.  Criteria 1 and 2 read their cells through one
session-scoped cache, so a cell the two recipes share runs once, and
consecutive modes of a (seed, rho) stream share its draw, as in the CLI.
"""

import random
import time
from functools import lru_cache

import pytest

from reference import backlog, brute_force_alloc, max_lateness, \
    min_max_lateness, reference_dfpq
from conftest import make_conn, recipe, rtps_conn
from uplinksim.cli import cells, matrix_cells, run_matrix, write_outputs
from uplinksim.engine import Scenario, SimMode, draw_streams, run
from uplinksim.metrics import jain_index, run_summary, window_metrics
from uplinksim.model import ServiceClass
from uplinksim.ss_sched import Station, dfpq_round, serve_rtps_edf


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


def simulate(cfg, mode, seed, rho, scenario=None, streams=None):
    """One cell of the recipe ``cfg``, optionally on another scenario;
    ``streams`` are as in ``engine.run``."""
    return run(scenario or cfg.scenario, mode, cfg.frames, seed=seed, rho=rho,
               drop_expired=cfg.drop_expired, streams=streams)


@pytest.fixture(scope="session")
def summarize():
    """``summarize(cfg, mode, seed, rho, scenario=None)`` is the cell's
    (run summary, wall seconds), each distinct cell simulated once per
    session: recipes that share a cell share its run.  Only the latest
    draw is kept, so consecutive cells of one (scenario, frames, seed, rho)
    stream share it while at most one stream is held.  A cell's wall time
    includes the draw where the cell made it."""
    cache = {}
    draw = lru_cache(maxsize=1)(draw_streams)

    def summarize(cfg, mode, seed, rho, scenario=None):
        scenario = scenario or cfg.scenario
        key = (scenario, cfg.frames, mode, seed, rho, cfg.drop_expired,
               cfg.warmup)
        if key not in cache:
            t0 = time.perf_counter()
            streams = draw(scenario, cfg.frames, seed, rho)
            result = simulate(cfg, mode, seed, rho, scenario, streams)
            wall = time.perf_counter() - t0
            cache[key] = (run_summary(result, cfg.warmup), wall)
        return cache[key]

    return summarize


def test_criterion_1_priority_ordered_delay(summarize):
    fig2 = recipe("fig2-delay")
    (rho,) = fig2.rhos
    # the recipe's rtPS flows running alone give the reference delay
    rtps_only = Scenario(
        frame=fig2.scenario.frame,
        conns=tuple(s for s in fig2.scenario.conns
                    if s.service_class is ServiceClass.RTPS),
    )
    frame_ms = fig2.scenario.frame.frame_duration_ms
    for seed in fig2.seeds:
        summary, wall = summarize(fig2, SimMode.SS1, seed, rho)
        delays = {
            cls: summary.per_class[cls].mean_delay_ms
            for cls in (ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE)
        }
        assert all(v is not None for v in delays.values()), f"seed {seed}"
        assert delays[ServiceClass.RTPS] < delays[ServiceClass.NRTPS] \
            < delays[ServiceClass.BE], f"seed {seed}: {delays}"
        reference_delay = summarize(fig2, SimMode.SS1, seed, rho, rtps_only)[0] \
            .per_class[ServiceClass.RTPS].mean_delay_ms
        assert delays[ServiceClass.RTPS] <= reference_delay + 2 * frame_ms, \
            f"seed {seed}: {delays[ServiceClass.RTPS]} vs {reference_delay}"
        assert wall < 10.0, f"seed {seed}: {wall:.1f}s per {fig2.frames}-frame run"
    report(1, f"mean delay rtps < nrtps < be in all {len(fig2.seeds)} seeds, "
              "rtps within 2 frames of its uncontended value, < 10 s per seed")


def test_criterion_2_violation_rate_benefit(summarize):
    fig4 = recipe("fig4-violation")
    n = len(fig4.seeds)
    strict = 0
    for rho in fig4.rhos:
        strict_at_rho = 0
        for seed in fig4.seeds:
            ss1, gpc = (summarize(fig4, mode, seed, rho)[0]
                        .per_class[ServiceClass.RTPS].violation_rate
                        for mode in (SimMode.SS1, SimMode.GPC))
            assert ss1 is not None and gpc is not None
            assert ss1 <= gpc, f"rho {rho}, seed {seed}: {ss1} > {gpc}"
            if ss1 < gpc:
                strict_at_rho += 1
        assert strict_at_rho >= n - 1, \
            f"rho {rho}: strict improvement in only {strict_at_rho}/{n} seeds"
        strict += strict_at_rho
    cells = n * len(fig4.rhos)
    rhos = " and ".join(str(rho) for rho in fig4.rhos)
    report(2, "rtps delay-violation rate: pooled scheduler <= per-connection "
              f"grants in {cells}/{cells} cells (rho {rhos}, {n} seeds each), "
              f"strictly better in {strict}/{cells}")


def test_criterion_3_be_starvation_contrast():
    cfg = recipe("fig5-fig6-throughput")
    frame = cfg.scenario.frame
    # bulk-transfer flood: nrtPS alone offers at least 80 % of the capacity
    flood_kbps = sum(s.traffic.mean_rate_kbps for s in cfg.scenario.conns
                     if s.service_class is ServiceClass.NRTPS)
    assert flood_kbps * frame.frame_duration_ms / 8 \
        >= 0.8 * frame.uplink_capacity_bytes
    checks = {SimMode.SS1: lambda t: t > 0.0, SimMode.SS2: lambda t: t == 0.0}
    for mode, seed, rho in matrix_cells(cfg):
        windows = window_metrics(simulate(cfg, mode, seed, rho),
                                 cfg.window_ms, cfg.warmup)
        assert windows
        for w in windows:
            tput = w.per_class[ServiceClass.BE].throughput_kbps
            assert checks[mode](tput), (mode, seed, w.window_start_ms, tput)
    report(3, "under an nrtPS flood the deficit round keeps BE throughput "
              "> 0 in every window; strict priority pins it to exactly 0")


def test_criterion_4_utilization_and_fairness_sweep():
    cfg = recipe("fig7-fig8-utilization-jfi")
    tolerance = 0.01  # the criterion's stated absolute tolerance
    summaries = {}
    # the CLI's own cell loop: each (seed, rho) stream is drawn once
    for cell, result in cells(cfg):
        assert not isinstance(result, Exception), (cell, result)
        summaries[cell] = run_summary(result, cfg.warmup)

    def mean(mode, rho, field):
        vals = [getattr(summaries[(mode, s, rho)], field) for s in cfg.seeds]
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals)

    for rho in cfg.rhos:
        ss1_util = mean(SimMode.SS1, rho, "utilization")
        gpc_util = mean(SimMode.GPC, rho, "utilization")
        assert ss1_util >= gpc_util - tolerance, (rho, ss1_util, gpc_util)
    for rho in (r for r in cfg.rhos if r >= 0.8):
        ss1_jfi = mean(SimMode.SS1, rho, "jfi")
        ss2_jfi = mean(SimMode.SS2, rho, "jfi")
        assert ss1_jfi >= ss2_jfi - tolerance, (rho, ss1_jfi, ss2_jfi)
    report(4, "pooled scheduling dominates per-connection grants on "
              f"utilization at all {len(cfg.rhos)} intensities and strict "
              "priority on fairness at every intensity >= 0.8")


def test_criterion_5_allocator_property_suite():
    from test_bs_alloc import random_instance, run_pipeline

    rng = random.Random(20240815)
    checked = 0
    for _ in range(1200):
        requested, bwmin, weights, capacity = random_instance(rng)
        alloc, remaining = run_pipeline(requested, bwmin, weights, capacity)
        assert sum(alloc) + remaining == capacity
        assert all(a <= r for a, r in zip(alloc, requested))
        for a, r, m in zip(alloc, requested, bwmin):
            if r >= m:
                assert a >= m
        if remaining > 0:  # capacity is left only when every request is met
            assert alloc == requested
        oracle = brute_force_alloc(requested, bwmin, weights, capacity)
        assert alloc == oracle, (
            requested, bwmin, weights, capacity, alloc, oracle)
        checked += 1
    assert checked >= 1000
    report(5, f"conservation, request caps, minimum guarantees and the "
              f"byte-granular oracle (exact) over {checked} instances")


def test_criterion_6_deficit_round_oracle():
    rng = random.Random(987)
    checked = 0
    for _ in range(1200):
        nq = rng.randint(1, 3)
        queues = [[rng.randint(1, 40) for _ in range(rng.randint(0, 10))]
                  for _ in range(nq)]
        quanta = [rng.randint(1, 50) for _ in range(nq)]
        deficits = [rng.randint(0, 30) if queues[q] else 0 for q in range(nq)]
        cursor = rng.randint(0, nq - 1)
        budget = rng.randint(0, 150)

        cids = range(nq)
        conns = [make_conn(cid, ServiceClass.NRTPS, sizes=queues[cid])
                 for cid in cids]
        station = Station(*zip(*conns), quanta)
        station.deficit = list(deficits)
        station.cursor = cursor
        order, used = dfpq_round(station, budget)

        sent, dc, pos, ref_used = reference_dfpq(queues, quanta, deficits,
                                                 cursor, budget)
        assert order == [cids[q] for q in sent]
        assert station.deficit == dc
        assert station.cursor == pos
        assert used == ref_used
        for q in range(nq):
            assert station.deficit[q] >= 0
            if not conns[q][1]:
                assert station.deficit[q] == 0
        checked += 1
    assert checked >= 1000
    report(6, f"deficit-round service order identical to the reference "
              f"simulator and counter invariants hold over {checked} instances")


def test_criterion_7_edf_minimal_max_lateness():
    rng = random.Random(4242)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        packets = [(rng.randint(1, 60), float(rng.randint(1, 150)))
                   for _ in range(n)]
        # every packet arrives at 0, so its deadline is its connection's bound
        conns = [rtps_conn(k, deadline, sizes=[size], arrivals=[0.0])
                 for k, (size, deadline) in enumerate(packets)]
        # rtPS only: no deficit round, so no quantum is read
        order, _ = serve_rtps_edf(Station(*zip(*conns), [0] * n).rtps, 10**9)
        got = max_lateness([packets[cid] for cid in order])
        assert got == min_max_lateness(packets), packets
        checked += 1
    report(7, f"earliest-deadline order achieves the brute-force minimum "
              f"of the maximum lateness over {checked} packet sets")


def test_criterion_8_metric_identities():
    rng = random.Random(5)
    for n in (1, 2, 3, 7, 19):
        assert jain_index([7.5] * n) == pytest.approx(1.0, abs=1e-12)
        one_hot = [0.0] * n
        one_hot[rng.randrange(n)] = 3.2
        assert jain_index(one_hot) == pytest.approx(1 / n, abs=1e-12)
        rates = [rng.random() * 50 for _ in range(n)]
        j = jain_index(rates)
        for c in (1e-3, 17.0, 1e6):
            assert jain_index([c * r for r in rates]) == \
                pytest.approx(j, abs=1e-12)

    scenario = recipe("baseline-4ss").scenario
    for mode in SimMode:
        result = run(scenario, mode, 1200, seed=3, rho=1.1)
        for s in result.conns:
            hist = result.history[s.cid]
            arrived = sum(p.size for p in hist)
            departed = sum(p.size for p in hist
                           if p.departure_time is not None)
            assert arrived == departed + backlog(result, s.cid)
    report(8, "fairness-index identities to 1e-12 and exact packet "
              "conservation in every mode")


def test_criterion_9_matrix_determinism(tmp_path):
    cfg = recipe("baseline-4ss")
    outputs = []
    for attempt in ("first", "second"):
        results, errors = run_matrix(cfg)
        assert not errors
        written = write_outputs(results, cfg, tmp_path / attempt)
        outputs.append({p.name: p.read_bytes() for p in written})
    assert outputs[0] == outputs[1]
    report(9, "two executions of the full default matrix produce "
              "byte-identical CSV outputs")
