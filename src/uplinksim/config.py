"""Scenario configuration: a line-oriented sectioned key=value format.

Grammar (see README for the full reference)::

    # comment / blank lines anywhere
    [frame]                 at most once
    duration_ms = 10
    capacity_bytes = 16000
    bandwidth_mhz = 4.3     informational only

    [run]                   at most once
    modes = ss1 ss2 gpc     or: all
    frames = 3000
    seeds = 1 2
    rhos = 1.0
    window_ms = 1000        >= duration_ms: packets depart at frame ends
    warmup = 0.1
    drop_expired = off
    trace = off
    outdir = out

    [connection]            once per connection
    cid = 0
    ss = 0
    class = rtps
    max_sustained_kbps = 1024    QoS block: omit all three to get the
    min_reserved_kbps = 512      per-class defaults; a partial block is an
    max_latency_ms = 20          error (the class decides which are needed)
    weight = 4
    model = onoff                cbr, onoff or poisson (also spelled
                                 poisson_bulk or poisson_mix); omit model
                                 to get the class default source
    rate_kbps = 1024
    size_bytes = 100 1250        one value = fixed size, two = uniform range;
                                 cbr takes one value
    on_ms = 500                  onoff only
    off_ms = 500                 onoff only

Parsing is strict: unknown sections or keys are errors, numbers must be
finite, and every scenario validation check runs at parse time.  Errors
carry line numbers.  Flags replace their [run] keys' text before any check
(``parse_config``'s ``flags``).  Building a ``ScenarioConfig``, from a file
or in code, refuses a matrix whose cells would cost more than
``MAX_CELL_WORK``, or whose on/off bursts would step below the clock's
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

from .engine import ConnSpec, Scenario, ScenarioError, SimMode
from .model import QOS_FIELDS, FrameConfig, QosParams, ServiceClass
from .traffic import TrafficKind, TrafficModel, default_models, draw_rate

#: QoS fallbacks applied when a connection omits its whole QoS block.
DEFAULT_QOS: dict[ServiceClass, QosParams] = {
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


class ConfigError(ValueError):
    """Parse or validation failure; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ScenarioConfig:
    """A run matrix.  Only one the simulator can draw can be built:
    construction runs ``within_work_ceiling``, so nothing checks it again."""

    scenario: Scenario
    modes: tuple[SimMode, ...] = (SimMode.SS1,)
    frames: int = 3000
    seeds: tuple[int, ...] = (1,)
    rhos: tuple[float, ...] = (1.0,)
    window_ms: float = 1000.0
    warmup: float = 0.1
    drop_expired: bool = False
    trace: bool = False
    outdir: str = "out"

    def __post_init__(self):
        within_work_ceiling(self)


#: The most work one cell may be expected to cost: a unit per packet, per
#: on/off phase change and per connection-frame.  A packet takes 24 B of its
#: connection's log (size, arrival and departure, 8 B each) and a
#: connection-frame an 8 B count and a pass of the frame loop, so a cell at
#: the ceiling takes at most about 1 GiB; the largest shipped cells
#: (fig2-delay and fig4-violation at rho 1.2) expect about 3.9e5, 115 times fewer.
MAX_CELL_WORK = 2**30 // 24


def frame_work(scenario: Scenario, rho: float) -> float:
    """Connections, plus the packets and on/off phase changes their sources
    are expected to draw, per frame at intensity ``rho``.  It overflows to
    inf for rates no cell could draw."""
    dur = scenario.frame.frame_duration_ms
    work = float(len(scenario.conns))
    for spec in scenario.conns:
        model = spec.traffic
        rate = draw_rate(spec.service_class, model, rho)
        packets = rate * dur / 8.0 / model.mean_size
        if model.kind is TrafficKind.ONOFF_VBR:
            on_off = model.mean_on_ms + model.mean_off_ms
            packets *= model.mean_on_ms / on_off  # drawn only while on
            work += 2.0 * dur / on_off
        work += packets
    return work


def burst_steps(scenario: Scenario, rho: float) -> dict[int, float]:
    """cid -> the ms each ``onoff`` source drawing traffic at intensity
    ``rho`` takes to accrue its smallest packet at its burst rate."""
    steps = {}
    for spec in scenario.conns:
        model = spec.traffic
        rate = draw_rate(spec.service_class, model, rho)
        if model.kind is TrafficKind.ONOFF_VBR and rate > 0:
            # as ``draw_stream`` steps: size over bytes per ms
            steps[spec.cid] = model.size_lo / (rate / 8.0)
    return steps


def within_work_ceiling(cfg: ScenarioConfig) -> None:
    """Raise ConfigError unless ``frames`` is an int > 0 and each distinct
    rho keeps its cells within ``MAX_CELL_WORK`` over ``cfg.frames``
    frames: a costlier cell would run for hours or fill memory.  An
    ``onoff`` source whose burst step is not above the clock's resolution
    at the last frame is refused too: there a packet's time ``u + dt``
    equals ``u``, and its packet loop never ends.  There is one error per
    rho refused and per source that would stall."""
    if not (isinstance(cfg.frames, int) and cfg.frames > 0):
        raise ConfigError([f"frames must be an int > 0, got {cfg.frames!r}"])
    try:
        resolution = math.ulp(cfg.frames * cfg.scenario.frame.frame_duration_ms)
    except OverflowError:  # ``frames`` is too large an int for a float
        resolution = math.inf
    errors = []
    for rho in dict.fromkeys(cfg.rhos):
        work = frame_work(cfg.scenario, rho)
        # divide: ``frames`` may be too large an int to convert to a float
        if not work <= MAX_CELL_WORK / cfg.frames:
            errors.append(
                f"rho {rho} over {cfg.frames} frames: each frame would cost "
                f"{work:.3g} connection passes, packets and on/off phase "
                f"changes, above the ceiling of {MAX_CELL_WORK} per cell")
            continue
        for cid, step in burst_steps(cfg.scenario, rho).items():
            if not step > resolution:
                errors.append(
                    f"rho {rho} over {cfg.frames} frames: cid {cid}'s on/off "
                    f"bursts accrue its smallest packet in {step:.3g} ms, not "
                    f"above the clock's resolution of {resolution:.3g} ms")
    if errors:
        raise ConfigError(errors)


def _tokenize(text: str):
    """Yield (line_no, kind, payload) where kind is 'section' or 'pair'."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            yield line_no, "section", line[1:-1].strip().lower()
        elif "=" in line:
            key, _, value = line.partition("=")
            yield line_no, "pair", (key.strip().lower(), value.strip())
        else:
            yield line_no, "bad", line


# Value parsers share one signature: (text, where, key, errors) -> value.
# ``where`` locates the value in messages ("line 12", "--rho"); a bad value
# appends one error and yields a fallback so the key's rule still runs.

def _parse_bool(text: str, where: str, key: str, errors: list[str]) -> bool:
    if text.lower() in ("on", "true", "yes", "1"):
        return True
    if text.lower() in ("off", "false", "no", "0"):
        return False
    errors.append(f"{where}: {key} must be on/off, got {text!r}")
    return False


def _parse_float(text: str, where: str, key: str, errors: list[str]) -> float:
    try:
        value = float(text)
    except ValueError:
        errors.append(f"{where}: {key} must be a number, got {text!r}")
        return 0.0
    if not math.isfinite(value):
        errors.append(f"{where}: {key} must be finite, got {text!r}")
        return 0.0
    return 0.0 if value == 0 else value  # -0 would print as "-0.000000"


def _parse_int(text: str, where: str, key: str, errors: list[str]) -> int:
    try:
        return int(text)
    except ValueError:
        errors.append(f"{where}: {key} must be an integer, got {text!r}")
        return 0


def _parse_label(noun, members, fold, text, where, key, errors):
    """One enum label; ``members`` maps spellings folded by ``fold``."""
    member = members.get(fold(text.strip()))
    if member is None:
        errors.append(f"{where}: unknown {noun} {text!r}")
    return member


_parse_mode = partial(_parse_label, "mode", {m.value: m for m in SimMode}, str.lower)
_parse_class = partial(_parse_label, "service class", ServiceClass.__members__,
                       str.upper)
_parse_model = partial(_parse_label, "traffic model", {
    **{k.value: k for k in TrafficKind},
    # earlier spellings of the one Poisson model, still accepted
    "poisson_bulk": TrafficKind.POISSON,
    "poisson_mix": TrafficKind.POISSON,
}, str.lower)


def _parse_list(parse, tokens, where, key, errors) -> tuple:
    """A non-empty token list, ``parse`` applied to each token."""
    if not tokens:
        errors.append(f"{where}: {key} must list at least one value")
    return tuple(parse(tok, where, key, errors) for tok in tokens)


def _parse_modes(tokens, where, key, errors) -> tuple[SimMode, ...]:
    if tokens == ["all"]:
        return tuple(SimMode)
    return _parse_list(_parse_mode, tokens, where, key, errors)


def _parse_sizes(tokens, where, key, errors) -> tuple[int, int]:
    """One value is a fixed size, two a uniform range: (lo, hi)."""
    if not 1 <= len(tokens) <= 2:
        errors.append(f"{where}: {key} takes one or two values")
        return 1, 1
    sizes = [_parse_int(tok, where, key, errors) for tok in tokens]
    return sizes[0], sizes[-1]


class _Key(NamedTuple):
    parse: Callable
    many: bool = False          # a list: the text is split before parsing
    rule: tuple | None = None   # (ok(value), what the message says otherwise)
    field: str | None = None    # dataclass field it fills, if not the key


_POSITIVE = (lambda v: v > 0, "must be > 0")

# One entry per key of each section; the allowed keys are these.
_FRAME = {
    "duration_ms": _Key(_parse_float, field="frame_duration_ms"),
    "capacity_bytes": _Key(_parse_int, field="uplink_capacity_bytes"),
    "bandwidth_mhz": _Key(_parse_float, field="channel_bandwidth_mhz"),
}
_RUN = {
    "modes": _Key(_parse_modes, many=True),
    "frames": _Key(_parse_int, rule=_POSITIVE),
    "seeds": _Key(partial(_parse_list, _parse_int), many=True),
    "rhos": _Key(partial(_parse_list, _parse_float), many=True,
                 rule=(lambda v: all(r >= 0 for r in v), "must be >= 0")),
    "window_ms": _Key(_parse_float, rule=_POSITIVE),
    "warmup": _Key(_parse_float, rule=(lambda v: 0 <= v < 1, "must be in [0, 1)")),
    "drop_expired": _Key(_parse_bool),
    "trace": _Key(_parse_bool),
    "outdir": _Key(lambda text, *_: text),
}
_CONN = {
    "cid": _Key(_parse_int),
    "ss": _Key(_parse_int),
    "class": _Key(_parse_class),
    **{key: _Key(_parse_float) for key in QOS_FIELDS},
    "weight": _Key(_parse_float),
    "model": _Key(_parse_model),
    "rate_kbps": _Key(_parse_float),
    "size_bytes": _Key(_parse_sizes, many=True),
    "on_ms": _Key(_parse_float, field="mean_on_ms"),
    "off_ms": _Key(_parse_float, field="mean_off_ms"),
}
_SECTIONS = {"frame": _FRAME, "run": _RUN, "connection": _CONN}


def _value(spec: _Key, key: str, errors: list[str], text: str, where: str,
           sep: str | None = None):
    """Parse and check one key's text; a list splits on ``sep``."""
    value = spec.parse(text.split(sep) if spec.many else text, where, key, errors)
    if spec.rule and not spec.rule[0](value):
        errors.append(f"{where}: {key} {spec.rule[1]}")
    return value


def _values(table: dict, given: dict[str, tuple], errors: list[str]) -> dict:
    """{field: value} for each key ``given`` as (text, where[, sep]); keys are
    taken in table order, which is the order their errors are reported in."""
    return {spec.field or key: _value(spec, key, errors, *given[key])
            for key, spec in table.items() if key in given}


def _build_conn(raw: dict, where: str, errors: list[str]) -> ConnSpec | None:
    for key in ("cid", "ss", "class"):
        if key not in raw:
            errors.append(f"{where}: connection is missing required key {key}")
            return None
    start = len(errors)

    def value(key):
        return _value(_CONN[key], key, errors, *raw[key])

    cid, ss, service_class = value("cid"), value("ss"), value("class")
    if service_class is None:
        return None

    # a partially specified QoS block is an error: the class decides which
    # fields are mandatory, so fill nothing in silently
    fields = {key: value(key) for key in QOS_FIELDS if key in raw}
    qos = QosParams(**fields) if fields else DEFAULT_QOS[service_class]
    if "weight" in raw:
        qos = replace(qos, weight=value("weight"))

    if "model" in raw:
        kind = value("model")
        if kind is None:
            return None
        for key in ("on_ms", "off_ms"):
            if key in raw and kind is not TrafficKind.ONOFF_VBR:
                errors.append(f"{raw[key][1]}: cid {cid}: {key} requires model = onoff")
        if "rate_kbps" not in raw or "size_bytes" not in raw:
            errors.append(
                f"{raw['model'][1]}: cid {cid}: an explicit model needs "
                "rate_kbps and size_bytes"
            )
            return None
        rate, (lo, hi) = value("rate_kbps"), value("size_bytes")
        model = TrafficModel(kind, rate, lo, hi, **{
            _CONN[key].field: value(key) for key in ("on_ms", "off_ms") if key in raw
        })
    else:
        for key in ("rate_kbps", "size_bytes", "on_ms", "off_ms"):
            if key in raw:
                errors.append(
                    f"{raw[key][1]}: cid {cid}: {key} requires an explicit model"
                )
        model = default_models()[service_class]

    if len(errors) > start:
        return None
    return ConnSpec(cid=cid, ss_id=ss, service_class=service_class,
                    qos=qos, traffic=model)


def parse_config(text: str,
                 flags: dict[str, tuple[str, str]] | None = None) -> ScenarioConfig:
    """Parse and fully validate a scenario configuration; ``flags`` maps
    [run] keys to command-line (text, where), which replace the file's.

    Raises ConfigError carrying every problem found, each with its line.
    """
    errors: list[str] = []
    raws: dict[str, dict[str, tuple[str, str]]] = {"frame": {}, "run": {}}
    conn_raws: list[tuple[dict, str]] = []
    section = None
    current: dict[str, tuple[str, str]] | None = None

    for line_no, kind, payload in _tokenize(text):
        where = f"line {line_no}"
        if kind == "bad":
            errors.append(f"{where}: expected 'key = value', got {payload!r}")
            continue
        if kind == "section":
            if payload == "connection":
                section, current = payload, {}
                conn_raws.append((current, where))
            elif payload in raws:
                section, current = payload, raws[payload]
            else:
                errors.append(f"{where}: unknown section [{payload}]")
                section, current = None, None
            continue
        key, value = payload
        if section is None or current is None:
            errors.append(f"{where}: {key} appears outside any section")
            continue
        if key not in _SECTIONS[section]:
            errors.append(f"{where}: unknown key {key!r} in [{section}]")
            continue
        if key in current:
            errors.append(f"{where}: duplicate key {key!r}")
            continue
        current[key] = (value, where)

    frame = FrameConfig(**_values(_FRAME, raws["frame"], errors))

    specs: list[ConnSpec] = []
    for raw, where in conn_raws:
        spec = _build_conn(raw, where, errors)
        if spec is not None:
            specs.append(spec)
    if not conn_raws:
        errors.append("config defines no subscriber stations (no [connection] sections)")

    for key, (value, where) in (flags or {}).items():
        raws["run"][key] = (value, where, ",")  # lists are comma-separated
    run_values = _values(_RUN, raws["run"], errors)

    if not errors:
        try:
            scenario = Scenario(frame=frame, conns=tuple(specs))
        except ScenarioError as exc:
            errors.extend(exc.problems)
        # packets depart only at frame ends, so a shorter window adds
        # nothing but rows
        window_ms = run_values.get("window_ms", ScenarioConfig.window_ms)
        if window_ms < frame.frame_duration_ms:
            where = (raws["run"].get("window_ms") or raws["frame"]["duration_ms"])[1]
            errors.append(f"{where}: window_ms {window_ms} is shorter than "
                          f"the frame duration {frame.frame_duration_ms} ms")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario=scenario, **run_values)


def _fmt(value: float) -> str:
    return repr(float(value))


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    out = []
    frame = cfg.scenario.frame
    out.append("[frame]")
    out.append(f"duration_ms = {_fmt(frame.frame_duration_ms)}")
    out.append(f"capacity_bytes = {frame.uplink_capacity_bytes}")
    out.append(f"bandwidth_mhz = {_fmt(frame.channel_bandwidth_mhz)}")
    out.append("")
    out.append("[run]")
    out.append("modes = " + " ".join(m.value for m in cfg.modes))
    out.append(f"frames = {cfg.frames}")
    out.append("seeds = " + " ".join(str(s) for s in cfg.seeds))
    out.append("rhos = " + " ".join(_fmt(r) for r in cfg.rhos))
    out.append(f"window_ms = {_fmt(cfg.window_ms)}")
    out.append(f"warmup = {_fmt(cfg.warmup)}")
    out.append(f"drop_expired = {'on' if cfg.drop_expired else 'off'}")
    out.append(f"trace = {'on' if cfg.trace else 'off'}")
    out.append(f"outdir = {cfg.outdir}")
    for spec in cfg.scenario.conns:
        out.append("")
        out.append("[connection]")
        out.append(f"cid = {spec.cid}")
        out.append(f"ss = {spec.ss_id}")
        out.append(f"class = {spec.service_class.label}")
        for key in QOS_FIELDS:
            value = getattr(spec.qos, key)
            if value is not None:
                out.append(f"{key} = {_fmt(value)}")
        out.append(f"weight = {_fmt(spec.qos.weight)}")
        m = spec.traffic
        out.append(f"model = {m.kind.value}")
        out.append(f"rate_kbps = {_fmt(m.mean_rate_kbps)}")
        if m.size_lo == m.size_hi:
            out.append(f"size_bytes = {m.size_lo}")
        else:
            out.append(f"size_bytes = {m.size_lo} {m.size_hi}")
        if m.kind is TrafficKind.ONOFF_VBR:
            out.append(f"on_ms = {_fmt(m.mean_on_ms)}")
            out.append(f"off_ms = {_fmt(m.mean_off_ms)}")
    out.append("")
    return "\n".join(out)


def baseline_scenario() -> Scenario:
    """Built-in four-station cell: each SS carries one connection of every
    service class with the default QoS contracts and traffic sources.

    Its 16000-byte capacity leaves headroom above the 7680 bytes/frame of
    guaranteed minimums so the excess-distribution phase has work to do.
    """
    frame = FrameConfig(frame_duration_ms=10.0, uplink_capacity_bytes=16000)
    models = default_models()
    order = (ServiceClass.UGS, ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE)
    specs = []
    for ss in range(4):
        for k, cls in enumerate(order):
            specs.append(
                ConnSpec(
                    cid=ss * 4 + k,
                    ss_id=ss,
                    service_class=cls,
                    qos=DEFAULT_QOS[cls],
                    traffic=models[cls],
                )
            )
    return Scenario(frame=frame, conns=tuple(specs))


def baseline_config() -> ScenarioConfig:
    """Default run matrix over the built-in scenario: all three modes."""
    return ScenarioConfig(
        scenario=baseline_scenario(),
        modes=(SimMode.SS1, SimMode.SS2, SimMode.GPC),
        frames=3000,
        seeds=(1, 2),
        rhos=(1.0,),
    )
