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

Parsing is strict: unknown sections or keys and a repeated [frame] or [run]
header are errors, numbers must be finite, and every scenario validation
check runs at parse time.  One pass over its key table reads all of a
section's values, so each bad one is named with its line.  The CLI ignores
a byte-order mark.  Flags replace their [run] keys' text before any check
(``parse_config``'s ``flags``).  The [run] rules belong to the values:
building a ``ScenarioConfig``, from a file or in code, checks each field's
type and rules, the window against the frame, and each distinct rho's cell
against ``engine.cell_problems`` (the work ceiling and the on/off clock);
the parser only names the line or flag that set a value that breaks a rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

from .engine import ConnSpec, Scenario, ScenarioError, SimMode, cell_problems
from .model import DEFAULT_QOS, QOS_FIELDS, FrameConfig, QosParams, ServiceClass
from .traffic import TrafficKind, TrafficModel, default_models


class ConfigError(ValueError):
    """Parse or validation failure; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def _a(*types, each: bool = False) -> Callable:
    """A type test, of a tuple's every value if ``each``; a bool passes only
    where ``types`` names bool."""
    def ok(v):
        return isinstance(v, types) and isinstance(v, bool) == (bool in types)
    return (lambda v: isinstance(v, tuple) and all(map(ok, v))) if each else ok


_NUMBER = (_a(int, float), "must be a number")
_BOOL = (_a(bool), "must be a bool")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_LISTED = (len, "must list at least one value")

#: Each matrix field's rules as (ok(value), message), checked up to the
#: first broken; the type comes first, so no later rule sees another.
_RULES = {
    "scenario": ((_a(Scenario), "must be a Scenario"),),
    "modes": ((_a(SimMode, each=True), "must be a tuple of modes"), _LISTED),
    "frames": ((_a(int), "must be an integer"), _POSITIVE),
    "seeds": ((_a(int, each=True), "must be a tuple of integers"), _LISTED),
    "rhos": ((_a(int, float, each=True), "must be a tuple of numbers"), _LISTED,
             (lambda v: all(r >= 0 for r in v), "must be >= 0")),
    "window_ms": (_NUMBER, _POSITIVE, (math.isfinite, "must be finite")),
    "warmup": (_NUMBER, (lambda v: 0 <= v < 1, "must be in [0, 1)")),
    "drop_expired": (_BOOL,),
    "trace": (_BOOL,),
    # the text of a file holds it only on one line, and the parser strips it
    "outdir": ((_a(str), "must be a string"),
               (lambda v: v.splitlines() in ([], [v]), "must not hold a line break"),
               (lambda v: v == v.strip(), "must not start or end with whitespace"),
               # no file system takes one in a path
               (lambda v: "\0" not in v, "must not hold a NUL byte")),
}


def _broken(field: str, value, skip: int = 0) -> str | None:
    """The message of the first of ``field``'s rules, from index ``skip`` on,
    that ``value`` breaks."""
    return next((f"{field} {what}" for ok, what in _RULES.get(field, ())[skip:]
                 if not ok(value)), None)


def _short_window(window_ms: float, frame: FrameConfig) -> list[str]:
    """Packets depart only at frame ends: a shorter window only adds rows."""
    dur = frame.frame_duration_ms
    return ([f"window_ms {window_ms} is shorter than the frame duration {dur} ms"]
            if window_ms < dur else [])


@dataclass(frozen=True)
class ScenarioConfig:
    """A run matrix.  Only one the simulator can run can be built:
    construction checks each field's ``_RULES``, then the window, then each
    distinct rho's ``cell_problems``, and raises ``ConfigError`` naming the
    problems the first failing stage finds."""

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
        errors = ([problem for field in _RULES
                   if (problem := _broken(field, getattr(self, field)))]
                  or _short_window(self.window_ms, self.scenario.frame)
                  or [problem for rho in dict.fromkeys(self.rhos)
                      for problem in cell_problems(self.scenario, self.frames, rho)])
        if errors:
            raise ConfigError(errors)


def _tokenize(text: str, errors: list[str]):
    """Yield (line_no, kind, payload), kind 'section' or 'pair'; name any other line."""
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
            errors.append(f"line {line_no}: expected 'key = value', got {line!r}")


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
    """``parse`` applied to each token."""
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


def _fmt(value: float) -> str:
    return repr(float(value))


def _on_off(value: bool) -> str:
    return "on" if value else "off"


def _joined(show: Callable) -> Callable:
    """A list's text: each value shown, separated by spaces."""
    return lambda values: " ".join(map(show, values))


class _Key(NamedTuple):
    parse: Callable
    show: Callable = str        # the value as text that ``parse`` reads back
    many: bool = False          # a list: the text is split before parsing
    field: str | None = None    # the field it fills, if not the key


# One entry per key of each section, in written order; the allowed keys are these.
_FRAME = {
    "duration_ms": _Key(_parse_float, _fmt, field="frame_duration_ms"),
    "capacity_bytes": _Key(_parse_int, field="uplink_capacity_bytes"),
    "bandwidth_mhz": _Key(_parse_float, _fmt, field="channel_bandwidth_mhz"),
}
_RUN = {
    "modes": _Key(_parse_modes, _joined(attrgetter("value")), many=True),
    "frames": _Key(_parse_int),
    "seeds": _Key(partial(_parse_list, _parse_int), _joined(str), many=True),
    "rhos": _Key(partial(_parse_list, _parse_float), _joined(_fmt), many=True),
    "window_ms": _Key(_parse_float, _fmt),
    "warmup": _Key(_parse_float, _fmt),
    "drop_expired": _Key(_parse_bool, _on_off),
    "trace": _Key(_parse_bool, _on_off),
    "outdir": _Key(lambda text, *_: text),
}
_CONN = {
    "cid": _Key(_parse_int),
    "ss": _Key(_parse_int, field="ss_id"),
    "class": _Key(_parse_class, attrgetter("label"), field="service_class"),
    **{key: _Key(_parse_float, _fmt) for key in QOS_FIELDS},
    "weight": _Key(_parse_float, _fmt),
    "model": _Key(_parse_model, attrgetter("value"), field="kind"),
    "rate_kbps": _Key(_parse_float, _fmt, field="mean_rate_kbps"),
    # (lo, hi), written as one value when they are equal
    "size_bytes": _Key(_parse_sizes, _joined(str), many=True),
    "on_ms": _Key(_parse_float, _fmt, field="mean_on_ms"),
    "off_ms": _Key(_parse_float, _fmt, field="mean_off_ms"),
}
_SECTIONS = {"frame": _FRAME, "run": _RUN, "connection": _CONN}


def _value(spec: _Key, key: str, errors: list[str], text: str, where: str,
           sep: str | None = None):
    """Parse one key's text, a list split on ``sep``, and check its rules;
    only the matrix fields have any."""
    value = spec.parse(text.split(sep) if spec.many else text, where, key, errors)
    # the parser gives the field's type, or holds a label it named as unknown
    if ((field := spec.field or key) in _RULES
            and (problem := _broken(field, value, skip=1))):
        errors.append(f"{where}: {problem}")
    return value


def _values(table: dict, given: dict[str, tuple], errors: list[str]) -> dict:
    """{field: value} for each key ``given`` as (text, where[, sep]); keys are
    taken in table order, which is the order their errors are reported in."""
    return {spec.field or key: _value(spec, key, errors, *given[key])
            for key, spec in table.items() if key in given}


def _build_conn(raw: dict, where: str, errors: list[str]) -> ConnSpec | None:
    """The section's values, then the rules that join its keys."""
    start = len(errors)
    v = _values(_CONN, raw, errors)
    if missing := [key for key in ("cid", "ss", "class") if key not in raw]:
        errors.extend(f"{where}: connection is missing required key {key}"
                      for key in missing)
        return None

    def misplaced(keys, needs):
        errors.extend(f"{raw[key][1]}: cid {v['cid']}: {key} requires {needs}"
                      for key in keys if key in raw)

    if "model" not in raw:
        misplaced(("rate_kbps", "size_bytes", "on_ms", "off_ms"), "an explicit model")
    elif v["kind"] is not None:  # an unknown model is named already
        if v["kind"] is not TrafficKind.ONOFF_VBR:
            misplaced(("on_ms", "off_ms"), "model = onoff")
        if "rate_kbps" not in raw or "size_bytes" not in raw:
            errors.append(f"{raw['model'][1]}: cid {v['cid']}: an explicit model "
                          "needs rate_kbps and size_bytes")
    if len(errors) > start:
        return None

    # a partially specified QoS block is an error: the class decides which
    # fields are mandatory, so fill nothing in silently
    fields = {key: v[key] for key in QOS_FIELDS if key in v}
    qos = QosParams(**fields) if fields else DEFAULT_QOS[v["service_class"]]
    qos = replace(qos, weight=v.get("weight", qos.weight))
    model = (TrafficModel(v["kind"], v["mean_rate_kbps"], *v["size_bytes"], **{
        key: v[key] for key in ("mean_on_ms", "mean_off_ms") if key in v})
        if "model" in raw else default_models()[v["service_class"]])
    return ConnSpec(cid=v["cid"], ss_id=v["ss_id"], service_class=v["service_class"],
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
    opened: set[str] = set()
    section = current = None  # the open section's name and its raw dict

    for line_no, kind, payload in _tokenize(text, errors):
        where = f"line {line_no}"
        if kind == "section":
            section, current = payload, raws.get(payload, {})
            if payload == "connection":
                conn_raws.append((current, where))
            elif payload not in raws:
                errors.append(f"{where}: unknown section [{payload}]")
                section = current = None
            elif payload in opened:  # its keys are still checked
                errors.append(f"{where}: duplicate section [{payload}]")
            opened.add(payload)
            continue
        key, value = payload
        if current is None:
            errors.append(f"{where}: {key} appears outside any section")
        elif key not in _SECTIONS[section]:
            errors.append(f"{where}: unknown key {key!r} in [{section}]")
        elif key in current:
            errors.append(f"{where}: duplicate key {key!r}")
        else:
            current[key] = (value, where)

    frame = FrameConfig(**_values(_FRAME, raws["frame"], errors))

    specs = [spec for raw, where in conn_raws
             if (spec := _build_conn(raw, where, errors)) is not None]

    for key, (value, where) in (flags or {}).items():
        raws["run"][key] = (value, where, ",")  # lists are comma-separated
    run_values = _values(_RUN, raws["run"], errors)

    if not errors:
        try:
            scenario = Scenario(frame=frame, conns=tuple(specs))
        except ScenarioError as exc:
            errors.extend(exc.problems)
        # named at the window's line or flag, or else at the frame's
        for problem in _short_window(
                run_values.get("window_ms", ScenarioConfig.window_ms), frame):
            where = (raws["run"].get("window_ms") or raws["frame"]["duration_ms"])[1]
            errors.append(f"{where}: {problem}")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario=scenario, **run_values)


def _section(name: str, table: dict, values: dict) -> str:
    """``[name]``, then ``key = value`` for each field ``values`` sets."""
    return f"[{name}]\n" + "".join(
        f"{key} = {spec.show(value)}\n" for key, spec in table.items()
        if (value := values.get(spec.field or key)) is not None)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    sections = [_section("frame", _FRAME, vars(cfg.scenario.frame)),
                _section("run", _RUN, vars(cfg))]
    for spec in cfg.scenario.conns:
        m = spec.traffic
        values = {**vars(spec), **vars(spec.qos), **vars(m),
                  "size_bytes": tuple(dict.fromkeys((m.size_lo, m.size_hi)))}
        if m.kind is not TrafficKind.ONOFF_VBR:
            values.update(mean_on_ms=None, mean_off_ms=None)
        sections.append(_section("connection", _CONN, values))
    return "\n".join(sections)


def baseline_scenario() -> Scenario:
    """Built-in four-station cell: each SS carries one connection of every
    service class with the default QoS contracts and traffic sources.

    Its 16000-byte capacity leaves headroom above the 7680 bytes/frame of
    guaranteed minimums so the excess-distribution phase has work to do.
    """
    frame = FrameConfig(frame_duration_ms=10.0, uplink_capacity_bytes=16000)
    models = default_models()
    order = (ServiceClass.UGS, ServiceClass.RTPS, ServiceClass.NRTPS, ServiceClass.BE)
    return Scenario(frame=frame, conns=tuple(
        ConnSpec(cid=ss * 4 + k, ss_id=ss, service_class=cls,
                 qos=DEFAULT_QOS[cls], traffic=models[cls])
        for ss in range(4) for k, cls in enumerate(order)))


def baseline_config() -> ScenarioConfig:
    """Default run matrix over the built-in scenario: all three modes."""
    return ScenarioConfig(
        scenario=baseline_scenario(),
        modes=(SimMode.SS1, SimMode.SS2, SimMode.GPC),
        frames=3000,
        seeds=(1, 2),
        rhos=(1.0,),
    )
