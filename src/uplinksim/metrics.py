"""Evaluation quantities computed from a RunResult.

Delays are reported for delivered packets only; packets still queued at run
end count as residual backlog, never into the means.  A window with no
deliveries yields absent (None) statistics rather than NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import RunResult
from .model import ServiceClass


@dataclass(frozen=True)
class ClassStats:
    mean_delay_ms: float | None
    violation_rate: float | None
    throughput_kbps: float


@dataclass(frozen=True)
class MetricsSample:
    """Statistics over [window_start_ms, window_end_ms).  ``per_class`` has
    one entry per configured class in ascending ``ServiceClass`` order,
    which is also the label order of the CSV rows (be, nrtps, rtps, ugs)."""

    window_start_ms: float
    window_end_ms: float
    per_class: dict[ServiceClass, ClassStats]
    utilization: float
    jfi: float | None


def _sum(values):
    """``sum`` as Python 3.11 adds floats, left to right: from 3.12 on the
    builtin compensates rounding, which moved the CSVs' last digits."""
    total = 0
    for value in values:
        total += value
    return total


def jain_index(rates) -> float | None:
    """Fairness index (sum r)^2 / (n * sum r^2); 1 when all rates are equal,
    1/n when exactly one is positive, undefined (None) when all are zero."""
    rates = list(rates)
    if not rates:
        raise ValueError("jain_index needs at least one rate")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    total = _sum(rates)
    if total == 0:
        return None
    square_sum = _sum(r * r for r in rates)
    return (total * total) / (len(rates) * square_sum)


def utilization(result: RunResult, window) -> float:
    """Mean used/capacity over the frames fully inside the window."""
    start, end = window
    dur = result.frame.frame_duration_ms
    first = max(0, int(-(-start // dur)))  # ceil
    last = min(result.frames, int(end // dur))
    if last <= first:
        return 0.0
    capacity = result.frame.uplink_capacity_bytes
    used = result.used[first:last]
    return _sum(u / capacity for u in used) / len(used)


def warmup_ms(result: RunResult, warmup_fraction: float = 0.1) -> float:
    return result.frames * result.frame.frame_duration_ms * warmup_fraction


def _samples(
    result: RunResult, start: float, window_ms: float, n: int, end: float
) -> list[MetricsSample]:
    """The one metrics accumulator: ``n`` windows of ``window_ms`` from
    ``start``, the last of which ends exactly at ``end``.

    A single pass over the packet logs (connections in ``result.conns``
    order, packets in log order) adds every packet delivered in [start, end)
    to its class's counters.  They are summed directly in that order, so
    the float delay sums, and with them the CSV bytes, are reproducible.
    Only a log's exited prefix has departures; a dropped packet's NaN
    departure lies in no window.
    """
    def rows():  # per window: delivered, delay sum, late, bytes
        return [0] * n, [0.0] * n, [0] * n, [0] * n

    by_class = {cls: rows() for cls in sorted({s.service_class for s in result.conns})}
    last = n - 1
    for spec in result.conns:
        count, delay_sum, late, nbytes = by_class[spec.service_class]
        bound = spec.qos.max_latency_ms
        log = result.logs[spec.cid]
        for dep, arrival, size in zip(log.departure, log.arrival, log.size):
            if not start <= dep < end:
                continue
            w = int((dep - start) // window_ms)
            if w > last:  # float rounding just below ``end``
                w = last
            delay = dep - arrival
            count[w] += 1
            delay_sum[w] += delay
            nbytes[w] += size
            if bound is not None and delay > bound:
                late[w] += 1

    def stats(acc, w):
        count, delay_sum, late, nbytes = (row[w] for row in acc)
        rate = nbytes * 8.0 / window_ms
        if count:
            return ClassStats(delay_sum / count, late / count, rate)
        return ClassStats(None, None, rate)

    samples = []
    for w in range(n):
        ws = start + w * window_ms
        window = (ws, end if w == last else ws + window_ms)
        per_class = {cls: stats(acc, w) for cls, acc in by_class.items()}
        samples.append(
            MetricsSample(
                window_start_ms=window[0],
                window_end_ms=window[1],
                per_class=per_class,
                utilization=utilization(result, window),
                jfi=jain_index([s.throughput_kbps for s in per_class.values()]),
            )
        )
    return samples


def window_metrics(
    result: RunResult, window_ms: float = 1000.0, warmup_fraction: float = 0.1
) -> list[MetricsSample]:
    """Per-window samples over the post-warm-up portion of the run; only
    full windows are reported."""
    if not (math.isfinite(window_ms) and window_ms > 0):
        raise ValueError(f"window_ms must be finite and > 0, got {window_ms}")
    total_ms = result.frames * result.frame.frame_duration_ms
    start = warmup_ms(result, warmup_fraction)
    n_windows = int((total_ms - start + 1e-9) // window_ms)
    if n_windows <= 0:
        return []
    # the last window's ``ws + window_ms``, computed as for the others
    end = start + (n_windows - 1) * window_ms + window_ms
    return _samples(result, start, window_ms, n_windows, end)


def run_summary(result: RunResult, warmup_fraction: float = 0.1) -> MetricsSample:
    """One sample covering the whole post-warm-up region [warm-up end,
    run end)."""
    total_ms = result.frames * result.frame.frame_duration_ms
    start = warmup_ms(result, warmup_fraction)
    if total_ms <= start:
        raise ValueError("window length must be > 0")
    return _samples(result, start, total_ms - start, 1, total_ms)[0]
