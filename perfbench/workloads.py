"""The benchmark's workloads.

Each workload is a scenario text generated from the benchmark seed, exactly
what a user would hand to ``uplinksim --config``; the program receives
nothing else.  The seed becomes the scenario's only simulation seed, so the
same seed gives the same text and the same simulated statistics.

Why these three (each ``why`` is repeated in BENCHMARK.json):

* ``cell16-overload`` is the acceptance regime.  Nearly every frame's
  water-filling is contended, so it is the allocator's heavy case, and the
  gpc backlog grows with frames, so it drives peak memory.
* ``cell16-light-trace`` almost never contends, so an optimisation of the
  contended allocator path should leave it unchanged; with the packet trace
  and short windows it carries the most CSV output of the three.
* ``cell256-scaled`` is the scale axis: 64 stations make per-connection and
  per-station overhead in the engine and the station scheduler dominate.

Frame counts are sized so that one matrix takes roughly a second of host
time on a 2-core x86 box with the pure-Python kernels, which leaves room
for several repeats inside one measured run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cell16-overload",
            "acceptance regime: built-in 16-connection cell at rho 1.2, "
            "ss1/ss2/gpc; water-filling contended in ~98% of frames and the "
            "gpc backlog grows with frames",
            1000,
        ),
        Workload(
            "cell16-light-trace",
            "rho 0.4, ss1/gpc, packet trace on, 100 ms windows: allocator "
            "almost never contended and the most CSV output per simulated "
            "frame",
            1000,
        ),
        Workload(
            "cell256-scaled",
            "64 stations x 4 classes at capacity x16, ss1 at rho 1.0: "
            "per-connection and per-station overhead in engine and ss_sched "
            "dominate",
            200,
        ),
    )
}


def _scaled_scenario(stations: int):
    """``stations`` copies of the built-in cell's first station, with the
    uplink capacity scaled by the same factor as the station count / 4."""
    from uplinksim.config import baseline_scenario
    from uplinksim.model import FrameConfig

    base = baseline_scenario()
    station = [s for s in base.conns if s.ss_id == 0]
    conns = tuple(
        replace(spec, cid=ss * len(station) + k, ss_id=ss)
        for ss in range(stations)
        for k, spec in enumerate(station)
    )
    frame = FrameConfig(
        frame_duration_ms=base.frame.frame_duration_ms,
        uplink_capacity_bytes=base.frame.uplink_capacity_bytes * stations // 4,
        channel_bandwidth_mhz=base.frame.channel_bandwidth_mhz,
    )
    return replace(base, frame=frame, conns=conns)


def scenario_text(name: str, seed: int, frames: int | None = None) -> str:
    """Scenario file text of workload ``name`` for benchmark seed ``seed``.

    ``frames`` overrides the workload's frame count (tests use tiny runs).
    """
    from uplinksim.config import baseline_config, serialize_config
    from uplinksim.engine import SimMode

    workload = WORKLOADS[name]
    cfg = replace(
        baseline_config(),
        frames=workload.frames if frames is None else frames,
        seeds=(seed,),
    )
    if name == "cell16-overload":
        cfg = replace(cfg, modes=(SimMode.SS1, SimMode.SS2, SimMode.GPC),
                      rhos=(1.2,))
    elif name == "cell16-light-trace":
        cfg = replace(cfg, modes=(SimMode.SS1, SimMode.GPC), rhos=(0.4,),
                      trace=True, window_ms=100.0)
    else:
        cfg = replace(cfg, scenario=_scaled_scenario(64),
                      modes=(SimMode.SS1,), rhos=(1.0,))
    return serialize_config(cfg)
