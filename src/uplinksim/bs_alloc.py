"""Base-station uplink bandwidth allocation.

Two-phase per-connection computation: first every connection receives its
guaranteed minimum (capped at what it actually requested), then the residual
capacity is water-filled over the still-unmet demands in proportion to the
connection weights.  The per-connection results are either pooled into one
grant per subscriber station (GPSS) or issued per connection (GPC).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend
from .model import FrameConfig, guaranteed_bytes


class InfeasibleReservationError(RuntimeError):
    """Raised when the guaranteed minimums alone exceed the frame capacity.

    Only reachable when scenario validation was skipped."""


@dataclass(frozen=True)
class BandwidthRequest:
    """Absolute current backlog demanded by one connection.  UGS connections
    never signal demand; the engine injects a synthetic request equal to
    their fixed per-frame grant."""

    cid: int
    requested_bytes: int


@dataclass
class AllocationResult:
    """Per-connection byte awards for one frame plus the unassigned rest;
    ``sum(allocated.values()) + remaining`` always equals the capacity."""

    allocated: dict[int, int]
    remaining: int


def weights_of(connections) -> dict[int, float]:
    return {c.cid: c.qos.weight for c in connections}


def phase1_guarantee(
    requests, connections, frame: FrameConfig
) -> AllocationResult:
    """Award each connection min(requested, guaranteed minimum).

    A connection never receives more than it requested, so idle connections
    leave their reservation for the excess phase.
    """
    by_cid = {c.cid: c for c in connections}
    minimums = {}
    total_min = 0
    for req in requests:
        bwmin = guaranteed_bytes(by_cid[req.cid], frame)
        minimums[req.cid] = bwmin
        total_min += bwmin
    capacity = frame.uplink_capacity_bytes
    if total_min > capacity:
        raise InfeasibleReservationError(
            f"guaranteed minimums need {total_min} bytes/frame "
            f"but capacity is {capacity}"
        )
    allocated = {}
    for req in requests:
        take = req.requested_bytes
        if take > minimums[req.cid]:
            take = minimums[req.cid]
        allocated[req.cid] = take
    remaining = capacity - sum(allocated.values())
    return AllocationResult(allocated=allocated, remaining=remaining)


def phase2_excess(
    result: AllocationResult, requests, weights: dict[int, float]
) -> AllocationResult:
    """Water-fill the residual capacity over unmet demands by weight.

    Allocations stay capped at the requests; leftover capacity survives only
    when every connection is fully satisfied.
    """
    if result.remaining <= 0:
        return AllocationResult(dict(result.allocated), result.remaining)
    cids = sorted(r.cid for r in requests)
    requested = {r.cid: r.requested_bytes for r in requests}
    deficits = [requested[cid] - result.allocated.get(cid, 0) for cid in cids]
    wlist = [float(weights[cid]) for cid in cids]
    increments = _backend.kernels.waterfill(deficits, wlist, result.remaining)
    allocated = dict(result.allocated)
    given = 0
    for cid, inc in zip(cids, increments):
        if inc:
            allocated[cid] = allocated.get(cid, 0) + inc
            given += inc
    return AllocationResult(allocated=allocated, remaining=result.remaining - given)


def pool_gpss(result: AllocationResult, connections) -> dict[int, int]:
    """Pool per-connection awards into one grant per subscriber station:
    ``{ss_id: bytes}``."""
    grants: dict[int, int] = {}
    for conn in connections:
        if conn.cid in result.allocated:
            grants[conn.ss_id] = grants.get(conn.ss_id, 0) + result.allocated[conn.cid]
    return grants


def allocate_gpc(
    requests, connections, frame: FrameConfig, weights: dict[int, float] | None = None
) -> dict[int, int]:
    """Per-connection grants from the same two-phase pipeline, ungrouped:
    ``{cid: bytes}``."""
    if weights is None:
        weights = weights_of(connections)
    result = phase2_excess(
        phase1_guarantee(requests, connections, frame), requests, weights
    )
    return result.allocated
