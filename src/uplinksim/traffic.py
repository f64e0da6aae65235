"""Synthetic per-connection traffic sources.

Every connection owns an independent, deterministically seeded RNG stream
derived from (run seed, cid), so a scenario replays byte-identically for the
same seed regardless of which other connections run beside it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

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


class TrafficSource:
    """Stateful packet generator for one connection.

    UGS sources are capped at their provisioned rate: the unsolicited grant
    is fixed, so offered load beyond it would only build an unserviceable
    backlog.  Intensities below 1 scale UGS down like every other class.
    """

    def __init__(
        self,
        conn: Connection,
        model: TrafficModel,
        frame: FrameConfig,
        rho: float = 1.0,
        seed: int = 0,
    ):
        if not 0 <= rho < math.inf:
            raise ValueError(f"traffic intensity must be finite and >= 0, got {rho}")
        self.conn = conn
        self.model = model
        effective_rho = min(rho, 1.0) if conn.service_class is ServiceClass.UGS else rho
        self.rate_kbps = model.mean_rate_kbps * effective_rho
        self.rng = random.Random(seed * 1_000_003 + conn.cid * 7919 + 1)
        self._getrandbits = self.rng.getrandbits
        self._random = self.rng.random
        self._dur = frame.frame_duration_ms
        self._lo = model.size_lo
        self._width = model.size_hi - model.size_lo + 1
        if self._width < 1:
            raise ValueError(f"empty packet size range {model.size_lo}-{model.size_hi}")
        self._bits = self._width.bit_length()
        # model state
        self._credit = 0.0  # bytes accrued toward the next packet
        self._on = False
        self._phase_left = 0.0
        self._next_size = 0
        self._on_rate_bpms = 0.0
        # the generator is kept as a plain function, not a bound method,
        # so a source holds no reference cycle to itself
        if self.rate_kbps <= 0:
            self._generate = TrafficSource._generate_nothing
        elif model.kind is TrafficKind.CBR:
            self._generate = TrafficSource._generate_cbr
        elif model.kind is TrafficKind.ONOFF_VBR:
            self._generate = TrafficSource._generate_onoff
            self._phase_left = self.rng.expovariate(1.0 / model.mean_off_ms)
            self._next_size = self._draw_size()
            duty = model.mean_on_ms / (model.mean_on_ms + model.mean_off_ms)
            self._on_rate_bpms = self.rate_kbps / duty / 8.0  # burst rate while ON
        else:
            self._generate = TrafficSource._generate_poisson
            lam = self.rate_kbps * self._dur / 8.0 / model.mean_size
            self._chunks = math.ceil(lam / _POISSON_CHUNK)
            self._chunk_limit = math.exp(-lam / self._chunks)

    def _draw_size(self) -> int:
        width = self._width
        if width == 1:
            return self._lo
        # randrange(lo, hi + 1) minus its Python layers: the same draws, and
        # the same RNG state after, on Python 3.10-3.13 (see README)
        bits = self._bits
        r = self._getrandbits(bits)
        while r >= width:
            r = self._getrandbits(bits)
        return self._lo + r

    def generate(self, frame_index: int) -> list[Packet]:
        """Arrivals within frame ``frame_index``, timestamps non-decreasing."""
        return self._generate(self, frame_index)

    def _generate_nothing(self, frame_index: int) -> list[Packet]:
        return []

    def _generate_cbr(self, frame_index: int) -> list[Packet]:
        # fixed-size packets emitted at frame start whenever a full packet
        # of credit has accumulated
        start = frame_index * self._dur
        self._credit += self.rate_kbps * self._dur / 8.0
        size = self._lo
        out = []
        while self._credit >= size:
            out.append(Packet(size, start))
            self._credit -= size
        return out

    def _generate_onoff(self, frame_index: int) -> list[Packet]:
        # walk the exponential on/off process across the frame; while ON,
        # bytes accrue at the burst rate and a packet leaves the instant its
        # full size has accrued
        dur = self._dur
        start = frame_index * dur
        end = start + dur
        rate = self._on_rate_bpms
        credit, size = self._credit, self._next_size
        phase_left, on = self._phase_left, self._on
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
                        size = self._draw_size()
                    else:
                        credit += rate * (seg_end - u)
                        break
            t = seg_end
            phase_left -= seg
            if phase_left <= 1e-12:
                on = not on
                mean = self.model.mean_on_ms if on else self.model.mean_off_ms
                phase_left = self.rng.expovariate(1.0 / mean)
        self._credit, self._next_size = credit, size
        self._phase_left, self._on = phase_left, on
        return out

    def _generate_poisson(self, frame_index: int) -> list[Packet]:
        dur = self._dur
        start = frame_index * dur
        uniform = self._random
        limit = self._chunk_limit
        # Knuth's product method, once per chunk: the count is how many
        # uniforms multiply in before the product falls to exp(-mean)
        n = 0
        for _ in range(self._chunks):
            p = uniform()
            while p > limit:
                n += 1
                p *= uniform()
        if not n:
            return []
        times = sorted([start + uniform() * dur for _ in range(n)])
        return [Packet(self._draw_size(), t) for t in times]
