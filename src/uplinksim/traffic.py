"""Synthetic per-connection traffic sources.

Every connection owns an independent, deterministically seeded RNG stream
derived from (run seed, cid), so a scenario replays byte-identically for the
same seed regardless of which other connections run beside it.  A stream
so depends on (seed, cid, rho) only, and a ``Tape`` lets the cells of a
matrix that share it draw it once and replay it.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .model import (
    MAX_PACKET_BYTES,
    Connection,
    FrameConfig,
    Packet,
    ServiceClass,
)


class TrafficKind(Enum):
    CBR = "cbr"
    ONOFF_VBR = "onoff"
    POISSON = "poisson"  # packet sizes come from the size range alone


@dataclass(frozen=True)
class TrafficModel:
    """Stochastic source description.

    ``size_lo == size_hi`` means fixed-size packets, which CBR requires.
    ``mean_on_ms`` and ``mean_off_ms`` apply to the on/off model only.
    """

    kind: TrafficKind
    mean_rate_kbps: float
    size_lo: int
    size_hi: int
    mean_on_ms: float = 500.0
    mean_off_ms: float = 500.0

    @property
    def mean_size(self) -> float:
        return (self.size_lo + self.size_hi) / 2.0


def default_models() -> dict[ServiceClass, TrafficModel]:
    """Per-class source defaults matching each class's traffic archetype:
    fixed-rate voice-like UGS, bursty on/off video-like rtPS, and Poisson
    arrivals of fixed-size bulk-transfer nrtPS and mixed-size best-effort
    background packets."""
    return {
        ServiceClass.UGS: TrafficModel(TrafficKind.CBR, 256.0, 320, 320),
        ServiceClass.RTPS: TrafficModel(TrafficKind.ONOFF_VBR, 1024.0, 100, 1250),
        ServiceClass.NRTPS: TrafficModel(TrafficKind.POISSON, 1024.0, 1250, 1250),
        ServiceClass.BE: TrafficModel(TrafficKind.POISSON, 512.0, 64, 1250),
    }


def model_violations(cid: int, model: TrafficModel, frame: FrameConfig) -> list[str]:
    """Sanity checks: positive finite rate and on/off means, one packet
    size for CBR, packet sizes within one frame's capacity and within what
    a ``PacketLog`` holds."""
    problems = []
    if not math.isfinite(model.mean_rate_kbps):
        problems.append(f"cid {cid}: traffic mean rate must be finite")
    elif model.mean_rate_kbps <= 0:
        problems.append(f"cid {cid}: traffic mean rate must be > 0")
    if not (1 <= model.size_lo <= model.size_hi):
        problems.append(f"cid {cid}: packet size range must satisfy 1 <= lo <= hi")
    elif model.kind is TrafficKind.CBR and model.size_lo != model.size_hi:
        problems.append(f"cid {cid}: a cbr model takes one packet size")
    if model.size_hi > frame.uplink_capacity_bytes:
        problems.append(
            f"cid {cid}: packet size {model.size_hi} exceeds uplink capacity "
            f"{frame.uplink_capacity_bytes} bytes/frame"
        )
    elif model.size_hi > MAX_PACKET_BYTES:
        problems.append(
            f"cid {cid}: packet size {model.size_hi} exceeds the packet log's "
            f"{MAX_PACKET_BYTES} bytes"
        )
    if model.kind is TrafficKind.ONOFF_VBR:
        means = (model.mean_on_ms, model.mean_off_ms)
        if not all(map(math.isfinite, means)):
            problems.append(f"cid {cid}: on/off mean durations must be finite")
        elif min(means) <= 0:
            problems.append(f"cid {cid}: on/off mean durations must be > 0")
    return problems


# Knuth's product method multiplies uniforms down to exp(-lambda), which
# underflows to 0 near lambda = 745; larger means are drawn as a sum of
# independent Poisson chunks of mean at most _POISSON_CHUNK each
_POISSON_CHUNK = 500.0


def _poisson_chunks(lam: float) -> tuple[int, float]:
    """How many chunks a Poisson count of mean ``lam`` is summed from, and
    the ``exp(-mean)`` each chunk's product of uniforms stops at."""
    chunks = math.ceil(lam / _POISSON_CHUNK)
    return chunks, math.exp(-lam / chunks)


def _size_draw(getrandbits, lo: int, hi: int):
    """A function drawing one packet size uniform over ``lo``..``hi``.

    It is ``randrange(lo, hi + 1)`` minus its Python layers: the same draws,
    and the same RNG state after, on Python 3.10-3.13 (see README).  A
    fixed size draws nothing."""
    if lo == hi:
        return lambda: lo
    width = hi - lo + 1
    bits = width.bit_length()

    def draw() -> int:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return lo + r

    return draw


# Each stream below is a generator that is sent frame indices, in order from
# 0, and answers each with that frame's arrivals: a list of Packets,
# timestamps non-decreasing.  It keeps its state in its own locals and is
# primed (run to its first yield) before the first frame is sent.

def _silent():
    while True:
        yield []


def _cbr(size: int, accrual: float, dur: float):
    # fixed-size packets emitted at frame start whenever a full packet of
    # credit has accumulated; ``accrual`` is one frame's bytes
    credit = 0.0
    out = None
    while True:
        fr = yield out
        start = fr * dur
        credit += accrual
        out = []
        while credit >= size:
            out.append(Packet(size, start))
            credit -= size


def _onoff(expovariate, draw, rate: float, mean_on: float, mean_off: float,
           dur: float):
    # walk the exponential on/off process across the frame; while ON, bytes
    # accrue at the burst rate (bytes per ms) and a packet leaves the
    # instant its full size has accrued
    phase_left = expovariate(1.0 / mean_off)
    size = draw()
    credit = 0.0
    on = False
    out = None
    while True:
        fr = yield out
        start = fr * dur
        end = start + dur
        out = []
        t = start
        while t < end:
            seg = min(phase_left, end - t)
            seg_end = t + seg
            if on:
                u = t
                while True:
                    dt = (size - credit) / rate
                    if u + dt < seg_end:
                        u += dt
                        out.append(Packet(size, u))
                        credit = 0.0
                        size = draw()
                    else:
                        credit += rate * (seg_end - u)
                        break
            t = seg_end
            phase_left -= seg
            if phase_left <= 1e-12:
                on = not on
                phase_left = expovariate(1.0 / (mean_on if on else mean_off))


def _poisson(uniform, draw, lam: float, dur: float):
    chunks, limit = _poisson_chunks(lam)
    out = None
    while True:
        fr = yield out
        # Knuth's product method, once per chunk: the count is how many
        # uniforms multiply in before the product falls to exp(-mean)
        n = 0
        for _ in range(chunks):
            p = uniform()
            while p > limit:
                n += 1
                p *= uniform()
        if n:
            start = fr * dur
            times = sorted([start + uniform() * dur for _ in range(n)])
            out = [Packet(draw(), t) for t in times]
        else:
            out = []


def _record(frames, counts):
    # the stream ``frames``, each frame's packet count appended to ``counts``
    next(frames)
    out = None
    while True:
        fr = yield out
        out = frames.send(fr)
        counts.append(len(out))


def _replay(size, arrival, counts):
    packets = map(Packet, size, arrival)
    out = None
    while True:
        fr = yield out
        out = list(islice(packets, counts[fr]))


def _draws(conn: Connection, model: TrafficModel, frame: FrameConfig,
           rho: float, seed: int):
    """The stream that draws ``model``'s arrivals for ``conn`` from the RNG
    seeded by (``seed``, cid)."""
    effective_rho = min(rho, 1.0) if conn.service_class is ServiceClass.UGS else rho
    rate_kbps = model.mean_rate_kbps * effective_rho
    dur = frame.frame_duration_ms
    if rate_kbps <= 0:
        return _silent()
    if model.kind is TrafficKind.CBR:
        return _cbr(model.size_lo, rate_kbps * dur / 8.0, dur)
    rng = random.Random(seed * 1_000_003 + conn.cid * 7919 + 1)
    draw = _size_draw(rng.getrandbits, model.size_lo, model.size_hi)
    if model.kind is TrafficKind.ONOFF_VBR:
        duty = model.mean_on_ms / (model.mean_on_ms + model.mean_off_ms)
        return _onoff(rng.expovariate, draw, rate_kbps / duty / 8.0,
                      model.mean_on_ms, model.mean_off_ms, dur)
    return _poisson(rng.random, draw, rate_kbps * dur / 8.0 / model.mean_size, dur)


class Tape:
    """One connection's recorded stream: every packet's ``size`` and
    ``arrival`` in generation order, and ``counts[f]`` the number of them
    generated in frame ``f``.

    The counts are kept because they cannot be rebuilt from the arrivals:
    a Poisson arrival ``start + uniform() * dur`` can round up to the next
    frame's start."""

    __slots__ = ("size", "arrival", "counts")

    def __init__(self, size: array, arrival: array):
        self.size = size
        self.arrival = arrival
        self.counts = array("q")


class TrafficSource:
    """One connection's packet generator.

    UGS sources are capped at their provisioned rate: the unsolicited grant
    is fixed, so offered load beyond it would only build an unserviceable
    backlog.  Intensities below 1 scale UGS down like every other class.

    Given a blank ``tape``, the source records into it: it draws as usual
    and appends each frame's packet count to ``tape.counts``, while its
    caller appends every packet ``generate`` returns to ``tape.size`` and
    ``tape.arrival`` (the engine's packet log does).  Given a recorded
    tape, it draws nothing and replays the tape's packets, frame by frame,
    as new ``Packet`` objects.
    """

    def __init__(
        self,
        conn: Connection,
        model: TrafficModel,
        frame: FrameConfig,
        rho: float = 1.0,
        seed: int = 0,
        tape: Tape | None = None,
    ):
        if not 0 <= rho < math.inf:
            raise ValueError(f"traffic intensity must be finite and >= 0, got {rho}")
        if model.size_lo > model.size_hi:
            raise ValueError(f"empty packet size range {model.size_lo}-{model.size_hi}")
        self.conn = conn
        if tape is None:
            frames = _draws(conn, model, frame, rho, seed)
        elif not tape.counts:
            frames = _record(_draws(conn, model, frame, rho, seed), tape.counts)
        else:
            frames = _replay(tape.size, tape.arrival, tape.counts)
        next(frames)
        self._frames = frames

    def generate(self, frame_index: int) -> list[Packet]:
        """Arrivals within frame ``frame_index``, timestamps non-decreasing;
        frames are generated in order from 0."""
        return self._frames.send(frame_index)
