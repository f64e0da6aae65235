import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from uplinksim.config import DEFAULT_QOS, ScenarioConfig, parse_config
from uplinksim.engine import ConnSpec, Scenario, ScenarioError
from uplinksim.model import FrameConfig, ServiceClass
from uplinksim.traffic import default_models

from reference import queue_log

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def recipe(name: str) -> ScenarioConfig:
    """The parsed ``scenarios/<name>.cfg``."""
    return parse_config((SCENARIOS / f"{name}.cfg").read_text(encoding="utf-8"))


def make_conn(cid, cls, ss=0, sizes=(), arrivals=None, qos=None):
    """(``ConnSpec``, log) for scheduler-level tests: the log's queue holds
    a packet of each of ``sizes``, arriving at ``arrivals`` (at 0, 1, 2,
    ... ms unless given)."""
    log = queue_log(sizes, arrivals if arrivals else range(len(sizes)))
    return spec(cid, cls, qos=qos, ss=ss), log


def spec(cid, cls, qos=None, model=None, ss=0):
    """``ConnSpec`` of class ``cls`` on station ``ss``, with the class's
    default QoS contract and traffic source unless ``qos`` or ``model``
    replaces them."""
    return ConnSpec(cid, ss, cls, DEFAULT_QOS[cls] if qos is None else qos,
                    default_models()[cls] if model is None else model)


def problems_of(frame_cfg, *specs):
    """The problems ``Scenario`` construction names for ``specs`` on
    ``frame_cfg``; [] when the scenario builds."""
    try:
        Scenario(frame_cfg, specs)
    except ScenarioError as exc:
        return exc.problems
    return []


def rtps_conn(cid, bound, sizes=(), arrivals=None):
    """(``ConnSpec``, log) of an rtPS connection whose latency bound is
    ``bound`` ms, so each queued packet's deadline is its arrival plus
    ``bound``."""
    qos = replace(DEFAULT_QOS[ServiceClass.RTPS], max_latency_ms=bound)
    return make_conn(cid, ServiceClass.RTPS, sizes=sizes, arrivals=arrivals, qos=qos)


def frame(capacity=5375, duration=10.0):
    return FrameConfig(frame_duration_ms=duration, uplink_capacity_bytes=capacity)
