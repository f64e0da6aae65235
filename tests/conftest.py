import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from uplinksim.config import ScenarioConfig, parse_config
from uplinksim.model import Connection, FrameConfig, Packet, QosParams, ServiceClass

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def recipe(name: str) -> ScenarioConfig:
    """The parsed ``scenarios/<name>.cfg``."""
    return parse_config((SCENARIOS / f"{name}.cfg").read_text(encoding="utf-8"))

# Standard QoS contracts used across the tests (rates in kbit/s, latency ms).
QOS = {
    ServiceClass.UGS: QosParams(max_sustained_kbps=256.0, weight=1.0),
    ServiceClass.RTPS: QosParams(
        max_sustained_kbps=1024.0, min_reserved_kbps=512.0,
        max_latency_ms=20.0, weight=4.0,
    ),
    ServiceClass.NRTPS: QosParams(
        max_sustained_kbps=1024.0, min_reserved_kbps=512.0, weight=2.0,
    ),
    ServiceClass.BE: QosParams(min_reserved_kbps=256.0, weight=1.0),
}


def make_conn(cid, cls, ss=0, sizes=(), arrivals=None, qos=None):
    """Connection with a pre-filled queue for scheduler-level tests."""
    conn = Connection(
        cid=cid, ss_id=ss, service_class=cls, qos=qos or QOS[cls], queue=deque()
    )
    for k, size in enumerate(sizes):
        arrival = arrivals[k] if arrivals else float(k)
        conn.queue.append(Packet(size=size, arrival_time=arrival))
    return conn


def rtps_conn(cid, bound, sizes=(), arrivals=None):
    """rtPS connection whose latency bound is ``bound`` ms, so each queued
    packet's deadline is its arrival plus ``bound``."""
    return make_conn(cid, ServiceClass.RTPS, sizes=sizes, arrivals=arrivals,
                     qos=replace(QOS[ServiceClass.RTPS], max_latency_ms=bound))


def frame(capacity=5375, duration=10.0):
    return FrameConfig(frame_duration_ms=duration, uplink_capacity_bytes=capacity)
