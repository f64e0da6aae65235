"""Synthetic per-connection traffic sources.

Every connection owns an independent, deterministically seeded RNG stream
derived from (run seed, cid), so a scenario replays byte-identically for the
same seed regardless of which other connections run beside it.  The
sources are open-loop: a stream depends on (seed, cid, rho, frames) only,
never on scheduling, so ``draw_stream`` draws it whole before the frame
loop and every cell of the same stream reads it.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from typing import NamedTuple

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


class Stream(NamedTuple):
    """One connection's whole traffic: every packet's ``size`` and
    ``arrival`` in generation order, and ``counts[f]`` the number of them
    that arrive in frame ``f``; ``seed``, ``rho`` and ``model`` are what it
    was drawn for.

    The counts are kept because they cannot be rebuilt from the arrivals:
    a Poisson arrival ``start + uniform() * dur`` can round up to the next
    frame's start."""

    size: array
    arrival: array
    counts: array
    seed: int
    rho: float
    model: TrafficModel


# Each model below draws a stream whole, frame by frame from 0, appending
# to the stream's columns; timestamps are non-decreasing.

def _cbr(stream: Stream, frames: int, size: int, accrual: float, dur: float):
    # fixed-size packets emitted at frame start whenever a full packet of
    # credit has accumulated; ``accrual`` is one frame's bytes
    arrival, counts = stream.arrival, stream.counts
    credit = 0.0
    for fr in range(frames):
        start = fr * dur
        credit += accrual
        n = 0
        while credit >= size:
            arrival.append(start)
            credit -= size
            n += 1
        counts.append(n)
    stream.size.extend(repeat(size, len(arrival)))


def _onoff(stream: Stream, frames: int, expovariate, draw, rate: float,
           mean_on: float, mean_off: float, dur: float):
    # walk the exponential on/off process across each frame; while ON,
    # bytes accrue at the burst rate (bytes per ms) and a packet leaves the
    # instant its full size has accrued
    sizes, arrival, counts = stream.size, stream.arrival, stream.counts
    phase_left = expovariate(1.0 / mean_off)
    size = draw()
    credit = 0.0
    on = False
    for fr in range(frames):
        start = fr * dur
        end = start + dur
        arrived = len(arrival)
        t = start
        while t < end:
            # min(phase_left, end - t), ties to phase_left, without the call
            seg = end - t
            if phase_left <= seg:
                seg = phase_left
            seg_end = t + seg
            if on:
                u = t
                while True:
                    dt = (size - credit) / rate
                    if u + dt < seg_end:
                        u += dt
                        sizes.append(size)
                        arrival.append(u)
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
        counts.append(len(arrival) - arrived)


def _poisson(stream: Stream, frames: int, uniform, draw, lam: float,
             dur: float, size: int):
    # ``draw`` is None for fixed-size packets, which draw nothing: the size
    # column is filled with ``size`` once, after the loop
    sizes, arrival, counts = stream.size, stream.arrival, stream.counts
    chunks, limit = _poisson_chunks(lam)
    for fr in range(frames):
        # Knuth's product method, once per chunk: the count is how many
        # uniforms multiply in before the product falls to exp(-mean)
        n = 0
        for _ in repeat(None, chunks):
            p = uniform()
            while p > limit:
                n += 1
                p *= uniform()
        if n:
            # the arrival times are drawn first, then the sizes
            start = fr * dur
            if n == 1:
                arrival.append(start + uniform() * dur)
            else:
                arrival.extend(sorted([start + uniform() * dur for _ in range(n)]))
            if draw is not None:
                sizes.extend([draw() for _ in range(n)])
        counts.append(n)
    if draw is None:
        sizes.extend(repeat(size, len(arrival)))


def draw_stream(conn: Connection, model: TrafficModel, frame: FrameConfig,
                rho: float, seed: int, frames: int) -> Stream:
    """``conn``'s arrivals over ``frames`` frames, drawn from the RNG seeded
    by (``seed``, cid); ``conn`` needs only ``cid`` and ``service_class``.

    UGS sources are capped at their provisioned rate: the unsolicited grant
    is fixed, so offered load beyond it would only build an unserviceable
    backlog.  Intensities below 1 scale UGS down like every other class.
    """
    if not 0 <= rho < math.inf:
        raise ValueError(f"traffic intensity must be finite and >= 0, got {rho}")
    # a valid Scenario never has an empty range, but a caller may pass any
    # model here, and on one ``_size_draw`` would spin forever
    if model.size_lo > model.size_hi:
        raise ValueError(f"empty packet size range {model.size_lo}-{model.size_hi}")
    stream = Stream(array("q"), array("d"), array("q"), seed, rho, model)
    effective_rho = min(rho, 1.0) if conn.service_class is ServiceClass.UGS else rho
    rate_kbps = model.mean_rate_kbps * effective_rho
    dur = frame.frame_duration_ms
    if rate_kbps <= 0:
        stream.counts.extend(repeat(0, frames))
    elif model.kind is TrafficKind.CBR:
        _cbr(stream, frames, model.size_lo, rate_kbps * dur / 8.0, dur)
    else:
        rng = random.Random(seed * 1_000_003 + conn.cid * 7919 + 1)
        draw = _size_draw(rng.getrandbits, model.size_lo, model.size_hi)
        if model.kind is TrafficKind.ONOFF_VBR:
            duty = model.mean_on_ms / (model.mean_on_ms + model.mean_off_ms)
            _onoff(stream, frames, rng.expovariate, draw, rate_kbps / duty / 8.0,
                   model.mean_on_ms, model.mean_off_ms, dur)
        else:
            _poisson(stream, frames, rng.random,
                     draw if model.size_lo < model.size_hi else None,
                     rate_kbps * dur / 8.0 / model.mean_size, dur, model.size_lo)
    return stream


class TrafficSource:
    """Hands one connection's ``Stream`` out frame by frame, as new
    ``Packet`` objects."""

    def __init__(self, conn: Connection, stream: Stream):
        self.conn = conn
        self._counts = stream.counts
        self._packets = map(Packet, stream.size, stream.arrival)

    def generate(self, frame_index: int) -> list[Packet]:
        """Arrivals within frame ``frame_index``, timestamps non-decreasing;
        frames are handed out in order from 0, and a frame without arrivals
        may be passed over."""
        return list(islice(self._packets, self._counts[frame_index]))
