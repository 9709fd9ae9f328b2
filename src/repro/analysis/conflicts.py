"""Conflict-resolution timing.

The colouring guarantee of Corollary 1.2 is often summarised as: "any conflict
between two nodes caused by a newly inserted edge is resolved within
T = O(log n) rounds".  :func:`conflict_resolution_times` measures exactly
that, given the attack log of a
:class:`~repro.dynamics.adversaries.targeted_coloring.TargetedColoringAdversary`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import Edge
from repro.runtime.trace import ExecutionTrace

__all__ = ["conflict_resolution_times"]


def conflict_resolution_times(
    trace: ExecutionTrace,
    attacks: Sequence[Tuple[int, Edge]],
    *,
    max_wait: Optional[int] = None,
) -> List[Dict[str, float]]:
    """For each attack ``(round, edge)``, how long the endpoints shared a colour.

    For an edge ``{u, v}`` inserted at round ``r`` the *conflict duration* is
    the number of consecutive rounds ``>= r`` in which both endpoints output
    the same non-⊥ colour.  A duration of 0 means the endpoints already
    differed when the edge appeared (the adversary attacked based on a stale
    output, or the combiner had already moved on).

    Attacks whose observation window is truncated by the end of the trace are
    flagged ``censored`` so aggregation can exclude them.
    """
    results: List[Dict[str, float]] = []
    horizon = trace.num_rounds
    for attack_round, (u, v) in attacks:
        if attack_round > horizon:
            continue
        limit = horizon if max_wait is None else min(horizon, attack_round + max_wait)
        duration = 0
        resolved = False
        for r in range(attack_round, limit + 1):
            cu = trace.output_of(u, r)
            cv = trace.output_of(v, r)
            if cu is not None and cu == cv:
                duration += 1
            else:
                resolved = True
                break
        results.append(
            {
                "attack_round": float(attack_round),
                "u": float(u),
                "v": float(v),
                "duration": float(duration),
                "censored": float(0.0 if resolved else 1.0),
            }
        )
    return results
