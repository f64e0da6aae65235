"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its criterion holds (visible with
``pytest -s`` or in the captured output).  Shared simulation runs live in
session-scoped fixtures so the suite stays fast.
"""

import random
import time
from dataclasses import replace

import pytest

from reference import brute_force_alloc, max_lateness, min_max_lateness, \
    reference_dfpq
from conftest import frame as make_frame, make_conn
from uplinksim.cli import run_matrix, write_outputs
from uplinksim.config import baseline_config
from uplinksim.engine import Scenario, SimMode, run
from uplinksim.metrics import jain_index, run_summary, window_metrics
from uplinksim.model import ServiceClass
from uplinksim.ss_sched import DfpqState, FrameBudget, dfpq_round, \
    new_dfpq_state, serve_rtps_edf
from uplinksim.traffic import TrafficKind, TrafficModel

SEEDS = (1, 2, 3, 4, 5)
FRAMES = 10_000
RHO_OVERLOAD = 1.2
FRAME_MS = 10.0


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


@pytest.fixture(scope="session")
def baseline():
    return baseline_config()


@pytest.fixture(scope="session")
def overload_runs(baseline):
    """(mode, seed) -> (RunResult summary, wall seconds) at rho 1.2."""
    runs = {}
    for mode in (SimMode.SS1, SimMode.GPC):
        for seed in SEEDS:
            t0 = time.perf_counter()
            result = run(baseline.scenario, mode, FRAMES, seed=seed,
                         rho=RHO_OVERLOAD)
            wall = time.perf_counter() - t0
            runs[(mode, seed)] = (run_summary(result), wall)
    return runs


@pytest.fixture(scope="session")
def uncontended_rtps(baseline):
    """rtPS flows running alone: the reference delay for criterion 1."""
    rtps_only = Scenario(
        frame=baseline.scenario.frame,
        conns=tuple(s for s in baseline.scenario.conns
                    if s.service_class is ServiceClass.RTPS),
    )
    out = {}
    for seed in SEEDS:
        result = run(rtps_only, SimMode.SS1, FRAMES, seed=seed,
                     rho=RHO_OVERLOAD)
        out[seed] = run_summary(result).per_class[ServiceClass.RTPS]
    return out


def test_criterion_1_priority_ordered_delay(overload_runs, uncontended_rtps):
    for seed in SEEDS:
        summary, wall = overload_runs[(SimMode.SS1, seed)]
        delays = {
            cls: summary.per_class[cls].mean_delay_ms
            for cls in (ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE)
        }
        assert all(v is not None for v in delays.values()), f"seed {seed}"
        assert delays[ServiceClass.RTPS] < delays[ServiceClass.NRTPS] \
            < delays[ServiceClass.BE], f"seed {seed}: {delays}"
        reference_delay = uncontended_rtps[seed].mean_delay_ms
        assert delays[ServiceClass.RTPS] <= reference_delay + 2 * FRAME_MS, \
            f"seed {seed}: {delays[ServiceClass.RTPS]} vs {reference_delay}"
        assert wall < 10.0, f"seed {seed}: {wall:.1f}s per 10k-frame run"
    report(1, "mean delay rtps < nrtps < be in all 5 seeds, rtps within "
              "2 frames of its uncontended value, < 10 s per seed")


def test_criterion_2_violation_rate_benefit(overload_runs):
    strict = 0
    for seed in SEEDS:
        ss1 = overload_runs[(SimMode.SS1, seed)][0] \
            .per_class[ServiceClass.RTPS].violation_rate
        gpc = overload_runs[(SimMode.GPC, seed)][0] \
            .per_class[ServiceClass.RTPS].violation_rate
        assert ss1 is not None and gpc is not None
        assert ss1 <= gpc, f"seed {seed}: {ss1} > {gpc}"
        if ss1 < gpc:
            strict += 1
    assert strict >= 4, f"strict improvement in only {strict}/5 seeds"
    report(2, "rtps delay-violation rate: pooled scheduler <= per-connection "
              f"grants in 5/5 seeds, strictly better in {strict}/5")


def test_criterion_3_be_starvation_contrast(baseline):
    # bulk-transfer flood: nrtPS offered load alone equals the frame capacity
    heavy = Scenario(
        frame=baseline.scenario.frame,
        conns=tuple(
            replace(s, traffic=TrafficModel(TrafficKind.POISSON_BULK,
                                            3200.0, 1250, 1250))
            if s.service_class is ServiceClass.NRTPS else s
            for s in baseline.scenario.conns
        ),
    )
    assert 4 * 3200 * FRAME_MS / 8 >= 0.8 * heavy.frame.uplink_capacity_bytes
    for seed in (1, 2, 3):
        for mode, check in ((SimMode.SS1, lambda t: t > 0.0),
                            (SimMode.SS2, lambda t: t == 0.0)):
            result = run(heavy, mode, 5000, seed=seed, rho=1.0)
            windows = window_metrics(result, 1000.0, warmup_fraction=0.1)
            assert windows
            for w in windows:
                tput = w.per_class[ServiceClass.BE].throughput_kbps
                assert check(tput), (mode, seed, w.window_start_ms, tput)
    report(3, "under an nrtPS flood the deficit round keeps BE throughput "
              "> 0 in every window; strict priority pins it to exactly 0")


def test_criterion_4_utilization_and_fairness_sweep(baseline):
    rhos = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
    seeds = (1, 2)
    tolerance = 0.01  # the criterion's stated absolute tolerance
    summaries = {}
    for mode in (SimMode.SS1, SimMode.SS2, SimMode.GPC):
        for rho in rhos:
            for seed in seeds:
                result = run(baseline.scenario, mode, 4000, seed=seed, rho=rho)
                summaries[(mode, rho, seed)] = run_summary(result)

    def mean(mode, rho, field):
        vals = [getattr(summaries[(mode, rho, s)], field) for s in seeds]
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals)

    for rho in rhos:
        ss1_util = mean(SimMode.SS1, rho, "utilization")
        gpc_util = mean(SimMode.GPC, rho, "utilization")
        assert ss1_util >= gpc_util - tolerance, (rho, ss1_util, gpc_util)
    for rho in (0.8, 1.0, 1.2, 1.4):
        ss1_jfi = mean(SimMode.SS1, rho, "jfi")
        ss2_jfi = mean(SimMode.SS2, rho, "jfi")
        assert ss1_jfi >= ss2_jfi - tolerance, (rho, ss1_jfi, ss2_jfi)
    report(4, "pooled scheduling dominates per-connection grants on "
              "utilization at all 7 intensities and strict priority on "
              "fairness at every intensity >= 0.8")


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

        conns = [make_conn(q, ServiceClass.NRTPS, sizes=queues[q])
                 for q in range(nq)]
        st = DfpqState(cursor=cursor)
        for q in range(nq):
            st.quantum[q] = quanta[q]
            st.deficit[q] = deficits[q]
        fb = FrameBudget(total=budget)
        entries = dfpq_round(conns, [], st, fb)

        sent, dc, pos, used = reference_dfpq(queues, quanta, deficits,
                                             cursor, budget)
        assert [cid for cid, _ in entries] == sent
        assert [st.deficit[q] for q in range(nq)] == dc
        assert st.cursor == pos
        for q in range(nq):
            assert st.deficit[q] >= 0
            if not conns[q].queue:
                assert st.deficit[q] == 0
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
        conns = [
            make_conn(k, ServiceClass.RTPS, sizes=[size], arrivals=[0.0],
                      deadlines=[deadline])
            for k, (size, deadline) in enumerate(packets)
        ]
        entries = serve_rtps_edf(conns, FrameBudget(total=10**9))
        got = max_lateness([(p.size, p.deadline) for _, p in entries])
        assert got == min_max_lateness(packets), packets
        checked += 1
    report(7, f"earliest-deadline order achieves the brute-force minimum "
              f"of the maximum lateness over {checked} packet sets")


def test_criterion_8_metric_identities(baseline):
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

    for mode in SimMode:
        result = run(baseline.scenario, mode, 1200, seed=3, rho=1.1)
        for s in result.conns:
            hist = result.history[s.cid]
            arrived = sum(p.size for p in hist)
            departed = sum(p.size for p in hist
                           if p.departure_time is not None)
            assert arrived == departed + result.backlog(s.cid)
    report(8, "fairness-index identities to 1e-12 and exact packet "
              "conservation in every mode")


def test_criterion_9_matrix_determinism(baseline, tmp_path):
    outputs = []
    for attempt in ("first", "second"):
        results, errors = run_matrix(baseline)
        assert not errors
        outdir = tmp_path / attempt
        write_outputs(results, baseline, outdir)
        outputs.append({
            name: (outdir / name).read_bytes()
            for name in ("summary.csv", "timeseries.csv")
        })
    assert outputs[0] == outputs[1]
    report(9, "two executions of the full default matrix produce "
              "byte-identical CSV outputs")
