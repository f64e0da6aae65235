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


@dataclass(slots=True)
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


@dataclass(frozen=True)
class AllocationPlan:
    """What the allocator needs of one cell that never changes between
    frames, as tuples aligned in ascending cid order: the guaranteed
    minimum, the excess weight and the station of every connection.
    Requests handed to the allocator come in the same order."""

    cids: tuple[int, ...]
    minimums: tuple[int, ...]
    weights: tuple[float, ...]
    ss_ids: tuple[int, ...]
    capacity: int


def allocation_plan(scenario) -> AllocationPlan:
    """The plan of a cell's ``Scenario``, whose connections are in cid order
    and whose checked ``minimums`` fit the capacity (``Scenario.problems``)."""
    conns = scenario.conns
    return AllocationPlan(
        cids=tuple(c.cid for c in conns),
        minimums=scenario.minimums,
        weights=tuple(float(c.qos.weight) for c in conns),
        ss_ids=tuple(c.ss_id for c in conns),
        capacity=scenario.frame.uplink_capacity_bytes,
    )


def phase1_guarantee(requests, plan: AllocationPlan) -> AllocationResult:
    """Award each connection min(requested, guaranteed minimum).

    ``requests`` are aligned with the plan.  A connection never receives
    more than it requested, so idle connections leave their reservation for
    the excess phase.
    """
    allocated = {}
    given = 0
    for req, bwmin in zip(requests, plan.minimums):
        take = req.requested_bytes
        if take > bwmin:
            take = bwmin
        allocated[req.cid] = take
        given += take
    return AllocationResult(allocated=allocated, remaining=plan.capacity - given)


def phase2_excess(
    result: AllocationResult, requests, weights: tuple[float, ...]
) -> AllocationResult:
    """Water-fill the residual capacity over unmet demands by weight.

    ``requests`` come in ascending cid order with ``weights`` aligned to
    them.  Allocations stay capped at the requests; leftover capacity
    survives only when every connection is fully satisfied.

    It alone picks a frame's case: no rest leaves the awards as they are;
    unmet demand that fits the rest, as on most frames below saturation,
    raises each short award to its request; contention, the water-filling
    kernel's only domain, hands out the whole rest by weight.
    """
    remaining = result.remaining
    if remaining <= 0:
        return AllocationResult(dict(result.allocated), remaining)
    allocated = dict(result.allocated)
    deficits = [r.requested_bytes - allocated[r.cid] for r in requests]
    unmet = 0
    for d in deficits:
        if d > 0:
            unmet += d
            if unmet > remaining:  # contended: the kernel splits the rest
                break
    if unmet <= remaining:
        for req, d in zip(requests, deficits):
            if d > 0:
                allocated[req.cid] = req.requested_bytes
        return AllocationResult(allocated=allocated, remaining=remaining - unmet)
    increments = _backend.kernels.waterfill(deficits, weights, remaining)
    for req, inc in zip(requests, increments):
        if inc:
            allocated[req.cid] += inc
    return AllocationResult(allocated=allocated, remaining=0)


def pool_gpss(result: AllocationResult, plan: AllocationPlan) -> dict[int, int]:
    """Pool per-connection awards into one grant per subscriber station:
    ``{ss_id: bytes}``."""
    grants: dict[int, int] = {}
    allocated = result.allocated
    for cid, ss in zip(plan.cids, plan.ss_ids):
        grants[ss] = grants.get(ss, 0) + allocated[cid]
    return grants


def allocate_gpc(requests, plan: AllocationPlan) -> dict[int, int]:
    """Per-connection grants from the same two-phase pipeline, ungrouped:
    ``{cid: bytes}``."""
    result = phase2_excess(phase1_guarantee(requests, plan), requests, plan.weights)
    return result.allocated
