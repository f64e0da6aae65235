"""Frame-driven simulator of QoS uplink packet scheduling in an
802.16-style point-to-multipoint cell.

A base station allocates per-frame uplink bytes in two phases (guaranteed
minimums, then weighted excess distribution) and pools the awards per
subscriber station; each station spends its grant through a class hierarchy
of schedulers (UGS first, earliest-deadline rtPS, deficit rounds over nrtPS
and BE).  Two baselines ship alongside: a strict-priority station scheduler
and per-connection grants with no station scheduler at all.
"""

from ._backend import backend_name
from .bs_alloc import (
    AllocationPlan,
    AllocationResult,
    BandwidthRequest,
    allocate_gpc,
    allocation_plan,
    phase1_guarantee,
    phase2_excess,
    pool_gpss,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    baseline_config,
    baseline_scenario,
    parse_config,
    serialize_config,
)
from .engine import (
    ConnSpec,
    RunResult,
    Scenario,
    ScenarioError,
    SimMode,
    Simulation,
    run,
)
from .metrics import (
    ClassStats,
    MetricsSample,
    jain_index,
    run_summary,
    utilization,
    window_metrics,
)
from .model import (
    FrameConfig,
    Packet,
    PacketLog,
    QosParams,
    ServiceClass,
    bytes_per_frame,
)
from .ss_sched import (
    Station,
    TransmissionList,
    dfpq_round,
    schedule_frame_ss1,
    schedule_frame_ss2,
    serve_rtps_edf,
    serve_ugs,
)
from .traffic import TrafficKind, TrafficModel, TrafficSource, default_models

__version__ = "0.1.0"
