"""Synthetic per-connection traffic sources.

Every on/off or Poisson connection owns an independent, deterministically
seeded RNG derived from (run seed, cid), so a scenario replays
byte-identically for the same seed regardless of which other connections run
beside it; a CBR source draws nothing at random.  The
sources are open-loop: a stream depends on its connection, the frame
duration, seed, rho and frames, never on scheduling, so ``draw_stream``
draws it whole before the frame loop and every cell of it reads it.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from typing import NamedTuple

from .model import FrameConfig, Packet, ServiceClass


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


# Knuth's product method multiplies uniforms down to exp(-lambda), which
# underflows to 0 near lambda = 745; larger means are drawn as a sum of
# independent Poisson chunks of mean at most _POISSON_CHUNK each
_POISSON_CHUNK = 500.0


def _poisson_chunks(lam: float) -> tuple[int, float]:
    """How many chunks a Poisson count of mean ``lam`` is summed from, and
    the ``exp(-mean)`` each chunk's product of uniforms stops at.  A mean
    too small to divide into chunks is one chunk; if it is 0, that chunk
    draws nothing."""
    chunks = math.ceil(lam / _POISSON_CHUNK) or 1
    return chunks, math.exp(-lam / chunks)


def _size_draws(getrandbits, lo: int, hi: int):
    """An endless iterator of packet sizes uniform over ``lo``..``hi``,
    each drawn only when it is taken, so it never draws ahead.

    Each size is ``randrange(lo, hi + 1)`` minus its Python layers: the same
    draws, and the same RNG state after, on Python 3.10-3.13 (see README).
    A fixed size draws nothing."""
    if lo == hi:
        return repeat(lo)
    width = hi - lo + 1
    bits = width.bit_length()

    def draws():
        while True:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            yield lo + r

    return draws()


class Stream(NamedTuple):
    """One connection's whole traffic: every packet's ``size`` and
    ``arrival`` in generation order, and ``counts[f]`` the number of them
    that arrive in frame ``f``.

    The counts are kept because they cannot be rebuilt from the arrivals:
    a Poisson arrival ``start + uniform() * dur`` can round up to the next
    frame's start."""

    size: array
    arrival: array
    counts: array


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


def _onoff(stream: Stream, frames: int, expovariate, draws, rate: float,
           mean_on: float, mean_off: float, dur: float):
    # walk the exponential on/off process across each frame; while ON,
    # bytes accrue at the burst rate (bytes per ms) and a packet leaves the
    # instant its full size has accrued
    sizes, arrival, counts = stream.size, stream.arrival, stream.counts
    phase_left = expovariate(1.0 / mean_off)
    size = next(draws)
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
                        size = next(draws)
                    else:
                        credit += rate * (seg_end - u)
                        break
            t = seg_end
            phase_left -= seg
            if phase_left <= 1e-12:
                on = not on
                phase_left = expovariate(1.0 / (mean_on if on else mean_off))
        counts.append(len(arrival) - arrived)


def _poisson(stream: Stream, frames: int, uniform, draws, lam: float,
             dur: float):
    sizes, arrival, counts = stream.size, stream.arrival, stream.counts
    chunks, limit = _poisson_chunks(lam)
    for fr in range(frames):
        # Knuth's product method, once per chunk: the count is how many
        # uniforms multiply in before the product falls to exp(-mean)
        n = 0
        left = chunks
        while left:
            left -= 1
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
            sizes.extend(islice(draws, n))
        counts.append(n)


def draw_rate(service_class: ServiceClass, model: TrafficModel, rho: float) -> float:
    """The rate in kbit/s at which ``draw_stream`` accrues a source's bytes
    at intensity ``rho``: its mean rate times ``rho``, and for an on/off
    source divided by its duty cycle, as it accrues only while on.

    UGS sources are capped at their provisioned rate: the unsolicited grant
    is fixed, so offered load beyond it would only build an unserviceable
    backlog.  Intensities below 1 scale UGS down like every other class.
    """
    effective_rho = min(rho, 1.0) if service_class is ServiceClass.UGS else rho
    rate_kbps = model.mean_rate_kbps * effective_rho
    if model.kind is TrafficKind.ONOFF_VBR:
        rate_kbps /= model.mean_on_ms / (model.mean_on_ms + model.mean_off_ms)
    return rate_kbps


def draw_stream(spec, model: TrafficModel, frame: FrameConfig,
                rho: float, seed: int, frames: int) -> Stream:
    """The arrivals over ``frames`` frames at ``draw_rate`` of ``spec``, a
    connection's ``ConnSpec``, drawn from the RNG seeded by (``seed``,
    cid); ``spec`` needs only ``cid`` and ``service_class``."""
    if not 0 <= rho < math.inf:
        raise ValueError(f"traffic intensity must be finite and >= 0, got {rho}")
    # a valid Scenario never has an empty range, but a caller may pass any
    # model here, and on one ``_size_draws`` would spin forever
    if model.size_lo > model.size_hi:
        raise ValueError(f"empty packet size range {model.size_lo}-{model.size_hi}")
    stream = Stream(array("q"), array("d"), array("q"))
    rate_kbps = draw_rate(spec.service_class, model, rho)
    dur = frame.frame_duration_ms
    # no bytes per ms, at rho 0 or on a rate so small that they underflow
    if rate_kbps / 8.0 <= 0:
        stream.counts.extend(repeat(0, frames))
    elif model.kind is TrafficKind.CBR:
        _cbr(stream, frames, model.size_lo, rate_kbps * dur / 8.0, dur)
    else:
        rng = random.Random(seed * 1_000_003 + spec.cid * 7919 + 1)
        draws = _size_draws(rng.getrandbits, model.size_lo, model.size_hi)
        if model.kind is TrafficKind.ONOFF_VBR:
            _onoff(stream, frames, rng.expovariate, draws, rate_kbps / 8.0,
                   model.mean_on_ms, model.mean_off_ms, dur)
        else:
            _poisson(stream, frames, rng.random, draws,
                     rate_kbps * dur / 8.0 / model.mean_size, dur)
    return stream


class Arrivals:
    """One frame's arrivals of a connection: rows ``start`` up to ``stop``
    of its ``Stream``.  Its length is their count, and iterating it builds
    a ``Packet`` of each, so a caller that wants only the count builds
    none."""

    __slots__ = ("stream", "start", "stop")

    def __init__(self, stream: Stream, start: int, stop: int):
        self.stream = stream
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        stream, start, stop = self.stream, self.start, self.stop
        return map(Packet, stream.size[start:stop], stream.arrival[start:stop])


class TrafficSource:
    """Hands one connection's ``Stream`` out frame by frame, as
    ``Arrivals``; ``conn`` is the connection's ``ConnSpec``."""

    def __init__(self, spec, stream: Stream):
        self.conn = spec
        self._stream = stream
        self._stop = 0  # the rows handed out so far

    def generate(self, frame_index: int) -> Arrivals:
        """Arrivals within frame ``frame_index``, timestamps non-decreasing;
        frames are handed out in order from 0, and a frame without arrivals
        may be passed over."""
        start = self._stop
        self._stop = stop = start + self._stream.counts[frame_index]
        return Arrivals(self._stream, start, stop)
