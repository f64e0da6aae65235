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

from .model import Connection, FrameConfig, Packet, ServiceClass


class TrafficKind(Enum):
    CBR = "cbr"
    ONOFF_VBR = "onoff"
    POISSON_BULK = "poisson_bulk"
    POISSON_MIX = "poisson_mix"


@dataclass(frozen=True)
class TrafficModel:
    """Stochastic source description.

    ``size_lo == size_hi`` means fixed-size packets.  ``mean_on_ms`` and
    ``mean_off_ms`` apply to the on/off model only.
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
    fixed-rate voice-like UGS, bursty on/off video-like rtPS, bulk-transfer
    nrtPS, and mixed-size best-effort background."""
    return {
        ServiceClass.UGS: TrafficModel(TrafficKind.CBR, 256.0, 320, 320),
        ServiceClass.RTPS: TrafficModel(TrafficKind.ONOFF_VBR, 1024.0, 100, 1250),
        ServiceClass.NRTPS: TrafficModel(TrafficKind.POISSON_BULK, 1024.0, 1250, 1250),
        ServiceClass.BE: TrafficModel(TrafficKind.POISSON_MIX, 512.0, 64, 1250),
    }


def model_violations(cid: int, model: TrafficModel, frame: FrameConfig) -> list[str]:
    """Sanity checks: positive finite rate and on/off means, packet sizes
    within one frame's capacity."""
    problems = []
    if not math.isfinite(model.mean_rate_kbps):
        problems.append(f"cid {cid}: traffic mean rate must be finite")
    elif model.mean_rate_kbps <= 0:
        problems.append(f"cid {cid}: traffic mean rate must be > 0")
    if not (1 <= model.size_lo <= model.size_hi):
        problems.append(f"cid {cid}: packet size range must satisfy 1 <= lo <= hi")
    if model.size_hi > frame.uplink_capacity_bytes:
        problems.append(
            f"cid {cid}: packet size {model.size_hi} exceeds uplink capacity "
            f"{frame.uplink_capacity_bytes} bytes/frame"
        )
    if model.kind is TrafficKind.ONOFF_VBR:
        means = (model.mean_on_ms, model.mean_off_ms)
        if not all(map(math.isfinite, means)):
            problems.append(f"cid {cid}: on/off mean durations must be finite")
        elif min(means) <= 0:
            problems.append(f"cid {cid}: on/off mean durations must be > 0")
    return problems


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's product method; adequate for the small per-frame means here."""
    if lam <= 0.0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


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
        self.frame = frame
        effective_rho = min(rho, 1.0) if conn.service_class is ServiceClass.UGS else rho
        self.rate_kbps = model.mean_rate_kbps * effective_rho
        self.rng = random.Random(seed * 1_000_003 + conn.cid * 7919 + 1)
        self._latency = conn.qos.max_latency_ms
        # model state
        self._credit = 0.0  # bytes accrued toward the next packet
        self._on = False
        self._phase_left = 0.0
        self._next_size = 0
        self._on_rate_bpms = 0.0
        if model.kind is TrafficKind.ONOFF_VBR and self.rate_kbps > 0:
            self._phase_left = self.rng.expovariate(1.0 / model.mean_off_ms)
            self._next_size = self._draw_size()
            duty = model.mean_on_ms / (model.mean_on_ms + model.mean_off_ms)
            self._on_rate_bpms = self.rate_kbps / duty / 8.0  # burst rate while ON

    def _draw_size(self) -> int:
        m = self.model
        if m.size_lo == m.size_hi:
            return m.size_lo
        return self.rng.randint(m.size_lo, m.size_hi)

    def _packet(self, size: int, arrival: float) -> Packet:
        deadline = None if self._latency is None else arrival + self._latency
        return Packet(size=size, arrival_time=arrival, deadline=deadline)

    def generate(self, frame_index: int) -> list[Packet]:
        """Arrivals within frame ``frame_index``, timestamps non-decreasing."""
        if self.rate_kbps <= 0:
            return []
        kind = self.model.kind
        if kind is TrafficKind.CBR:
            return self._generate_cbr(frame_index)
        if kind is TrafficKind.ONOFF_VBR:
            return self._generate_onoff(frame_index)
        return self._generate_poisson(frame_index)

    def _generate_cbr(self, frame_index: int) -> list[Packet]:
        # fixed-size packets emitted at frame start whenever a full packet
        # of credit has accumulated
        start = frame_index * self.frame.frame_duration_ms
        self._credit += self.rate_kbps * self.frame.frame_duration_ms / 8.0
        size = self.model.size_lo
        out = []
        while self._credit >= size:
            out.append(self._packet(size, start))
            self._credit -= size
        return out

    def _generate_onoff(self, frame_index: int) -> list[Packet]:
        # walk the exponential on/off process across the frame; while ON,
        # bytes accrue at the burst rate and a packet leaves the instant its
        # full size has accrued
        dur = self.frame.frame_duration_ms
        start = frame_index * dur
        end = start + dur
        out = []
        t = start
        while t < end:
            seg = min(self._phase_left, end - t)
            seg_end = t + seg
            if self._on:
                u = t
                while True:
                    dt = (self._next_size - self._credit) / self._on_rate_bpms
                    if u + dt < seg_end:
                        u += dt
                        out.append(self._packet(self._next_size, u))
                        self._credit = 0.0
                        self._next_size = self._draw_size()
                    else:
                        self._credit += self._on_rate_bpms * (seg_end - u)
                        break
            t = seg_end
            self._phase_left -= seg
            if self._phase_left <= 1e-12:
                self._on = not self._on
                mean = self.model.mean_on_ms if self._on else self.model.mean_off_ms
                self._phase_left = self.rng.expovariate(1.0 / mean)
        return out

    def _generate_poisson(self, frame_index: int) -> list[Packet]:
        dur = self.frame.frame_duration_ms
        start = frame_index * dur
        lam = self.rate_kbps * dur / 8.0 / self.model.mean_size
        n = _poisson(self.rng, lam)
        times = sorted(start + self.rng.random() * dur for _ in range(n))
        return [self._packet(self._draw_size(), t) for t in times]
