"""Correctness check of one simulated cell, and the model-output fingerprint.

``check_cell`` returns the list of violated invariants (empty when the cell
is sound):

1. Bytes are conserved per connection: generated = delivered + dropped +
   still queued.  Every packet is in exactly one of those states, the
   delivered and dropped ones form a FIFO prefix of the connection's
   history, and, when the traffic layer's own count is known, the history
   holds exactly the bytes it generated.
2. In every frame, used <= granted <= capacity, and the bytes of the packets
   that departed at the end of that frame sum to its used bytes.
3. In every frame, phase-1 bytes plus phase-2 bytes equal the bytes granted
   (needs the allocator counters of a traced run).
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def check_cell(result, phase1=None, phase2=None, generated=None) -> list[str]:
    problems: list[str] = []
    frames = result.frames
    dur = result.frame.frame_duration_ms
    capacity = result.frame.uplink_capacity_bytes
    if len(result.granted) != frames or len(result.used) != frames:
        return [f"{len(result.granted)} granted and {len(result.used)} used "
                f"counters for {frames} frames"]

    sent = [0] * frames
    for spec in result.conns:
        cid = spec.cid
        total = delivered = dropped = queued = 0
        in_queue = False
        for pkt in result.history[cid]:
            total += pkt.size
            dep = pkt.departure_time
            if dep is None and not pkt.dropped:
                queued += pkt.size
                in_queue = True
                continue
            if in_queue:
                problems.append(f"cid {cid}: a packet left the queue after an "
                                "earlier one stayed queued")
            if pkt.dropped:
                dropped += pkt.size
            if dep is not None:
                delivered += pkt.size
                frame = round(dep / dur) - 1
                if not (0 <= frame < frames and (frame + 1) * dur == dep):
                    problems.append(f"cid {cid}: departure {dep} ms is not the "
                                    "end of a simulated frame")
                elif dep < pkt.arrival_time:
                    problems.append(f"cid {cid}: departure {dep} ms before "
                                    f"arrival {pkt.arrival_time} ms")
                else:
                    sent[frame] += pkt.size
        if delivered + dropped + queued != total:
            problems.append(f"cid {cid}: generated {total} B != delivered "
                            f"{delivered} + dropped {dropped} + queued {queued}")
        if generated is not None and generated.get(cid, 0) != total:
            problems.append(f"cid {cid}: traffic generated {generated.get(cid, 0)}"
                            f" B but the history holds {total} B")

    for f in range(frames):
        granted, used = result.granted[f], result.used[f]
        if not (0 <= used <= granted <= capacity):
            problems.append(f"frame {f}: used {used}, granted {granted}, "
                            f"capacity {capacity}")
        if sent[f] != used:
            problems.append(f"frame {f}: departed packets hold {sent[f]} B but "
                            f"used is {used} B")

    if phase1 is not None:
        if len(phase1) != frames or len(phase2) != frames:
            problems.append(f"{len(phase1)} phase-1 and {len(phase2)} phase-2 "
                            f"allocations for {frames} frames")
        else:
            for f in range(frames):
                if phase1[f] + phase2[f] != result.granted[f]:
                    problems.append(f"frame {f}: phase 1 {phase1[f]} B + phase 2 "
                                    f"{phase2[f]} B != granted "
                                    f"{result.granted[f]} B")
    return problems


def csv_digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


def fingerprint(results, written, warmup: float) -> dict:
    """Every written CSV's sha256 plus, per cell, the cell-wide utilisation,
    the rtPS delay-violation rate and the delivered packet count."""
    from uplinksim.metrics import run_summary
    from uplinksim.model import ServiceClass

    cells = {}
    for (mode, seed, rho), result in sorted(
            results.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])):
        summary = run_summary(result, warmup_fraction=warmup)
        rtps = summary.per_class.get(ServiceClass.RTPS)
        cells[f"{mode.value}/seed={seed}/rho={rho}"] = {
            "utilization": summary.utilization,
            "rtps_violation_rate": None if rtps is None else rtps.violation_rate,
            "delivered_packets": sum(
                1 for hist in result.history.values()
                for p in hist if p.departure_time is not None),
        }
    return {"csv_sha256": csv_digests(written), "cells": cells}
