"""Trace-based verification of the framework's behavioural properties.

These checkers operate exclusively on recorded
:class:`~repro.runtime.trace.ExecutionTrace` objects (topologies + outputs),
never on live algorithm state, and are used both by the test-suite and by the
experiment harness:

* :func:`verify_extension` — property A.1 (the output always extends the input);
* :func:`verify_never_retracts` — the stronger monotonicity all shipped dynamic
  algorithms satisfy (an output, once ≠ ⊥, never changes);
* :func:`verify_partial_solution_every_round` — property B.1, the
  :class:`~repro.problems.dynamic_problem.TDynamicSpec` check with ``T = 1``
  (``G_r`` is the window of one round), so B.1 and the T-dynamic guarantee
  run on the same array predicates;
* :func:`verify_locally_static` — property B.2 / Theorem 1.1(2): wherever an
  α-neighbourhood is static for an interval, the node's output is fixed from
  ``T`` rounds into the interval;
* :func:`verify_t_dynamic` — the T-dynamic guarantee (Theorem 1.1(1));
* :func:`find_static_intervals` — the maximal locally-static intervals of a
  node, used by the stability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.types import Assignment, Interval, NodeId
from repro.problems.dynamic_problem import TDynamicSpec
from repro.problems.packing_covering import ProblemPair
from repro.runtime.trace import ExecutionTrace

__all__ = [
    "StaticIntervalReport",
    "find_static_intervals",
    "verify_extension",
    "verify_never_retracts",
    "verify_partial_solution_every_round",
    "verify_locally_static",
    "verify_t_dynamic",
]


# ---------------------------------------------------------------------------
# A.1 — input extension / monotone outputs
# ---------------------------------------------------------------------------

def verify_extension(trace: ExecutionTrace, input_assignment: Optional[Assignment]) -> List[str]:
    """Check property A.1: every round's output extends the input vector.

    Returns a list of human-readable violation descriptions (empty = OK).
    """
    problems: List[str] = []
    if not input_assignment:
        return problems
    for r in trace.rounds():
        outputs = trace.outputs(r)
        for v, value in input_assignment.items():
            if value is None:
                continue
            if v not in trace.topology(r).nodes:
                continue
            if outputs.get(v) != value:
                problems.append(
                    f"round {r}: node {v} output {outputs.get(v)!r} does not preserve input {value!r}"
                )
    return problems


def verify_never_retracts(trace: ExecutionTrace) -> List[str]:
    """Check that once a node outputs a value ≠ ⊥ it never changes it again.

    This is the monotone behaviour of the paper's dynamic algorithms ("a node
    that generates an output keeps it in all following rounds", Section 7.1).
    """
    problems: List[str] = []
    committed: Dict[NodeId, object] = {}
    for r in trace.rounds():
        for v, value in trace.outputs(r).items():
            if v in committed:
                if value != committed[v]:
                    problems.append(
                        f"round {r}: node {v} changed committed output {committed[v]!r} -> {value!r}"
                    )
            elif value is not None:
                committed[v] = value
    return problems


# ---------------------------------------------------------------------------
# B.1 — partial solution on the current graph every round
# ---------------------------------------------------------------------------

def verify_partial_solution_every_round(
    trace: ExecutionTrace, pair: ProblemPair, *, start_round: int = 1
) -> List[str]:
    """Check property B.1: every round's output is a partial solution for ``G_r``.

    ``G_r`` is the ``T = 1`` window, so this is :class:`TDynamicSpec`'s check
    with ``T = 1``: a round fails at the nodes of its packing and covering
    violations; ⊥ nodes are allowed (Definition 3.2).
    """
    problems: List[str] = []
    for result in TDynamicSpec(pair, 1).check_trace(trace, start_round=start_round):
        bad = sorted(set(result.packing_violations) | set(result.covering_violations))
        if bad:
            problems.append(
                f"round {result.round_index}: partial-solution violations at nodes {bad[:10]}"
            )
    return problems


# ---------------------------------------------------------------------------
# B.2 / Theorem 1.1(2) — locally static output wherever the graph is locally static
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticIntervalReport:
    """A maximal interval during which a node's α-neighbourhood was static."""

    node: NodeId
    interval: Interval
    #: The node's outputs during the interval (for debugging stability failures).
    changes_after_grace: int
    stabilised: bool


def find_static_intervals(trace: ExecutionTrace, v: NodeId, alpha: int) -> List[Interval]:
    """Maximal intervals ``[r, r2]`` in which the α-neighbourhood of ``v`` is static.

    "Static" means: the α-ball of ``v`` (node set *and* induced edges) is
    identical in every round of the interval.  Rounds where ``v`` is asleep
    never belong to an interval.
    """
    signatures: List[Optional[Tuple[frozenset, frozenset]]] = []
    for r in trace.rounds():
        topo = trace.topology(r)
        if v not in topo.nodes:
            signatures.append(None)
            continue
        ball = topo.ball(v, alpha)
        signatures.append((ball, topo.induced_edges(ball)))

    intervals: List[Interval] = []
    start: Optional[int] = None
    for index, signature in enumerate(signatures, start=1):
        if signature is None:
            if start is not None:
                intervals.append(Interval(start, index - 1))
                start = None
            continue
        if start is None:
            start = index
        elif signature != signatures[index - 2]:
            intervals.append(Interval(start, index - 1))
            start = index
    if start is not None:
        intervals.append(Interval(start, len(signatures)))
    return intervals


def verify_locally_static(
    trace: ExecutionTrace,
    *,
    alpha: int,
    grace: int,
    nodes: Optional[Sequence[NodeId]] = None,
    min_interval_length: int = 1,
) -> List[StaticIntervalReport]:
    """Check the locally-static guarantee with stabilisation time ``grace``.

    For every node and every maximal interval ``[r, r2]`` in which its
    α-neighbourhood is static with ``r2 - r >= grace`` (so there is something
    to check), the node's output must not change during ``[r + grace, r2]``
    and must not be ⊥ there.

    Returns one report per (node, interval) pair considered; a report with
    ``stabilised == False`` is a violation of the guarantee.
    """
    node_list = list(nodes) if nodes is not None else sorted(
        trace.topology(trace.num_rounds).nodes
    )
    reports: List[StaticIntervalReport] = []
    for v in node_list:
        for interval in find_static_intervals(trace, v, alpha):
            if len(interval) < max(min_interval_length, grace + 1):
                continue
            check = Interval(interval.start + grace, interval.end)
            values = [trace.output_of(v, r) for r in range(check.start, check.end + 1)]
            changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
            stabilised = changes == 0 and all(value is not None for value in values)
            reports.append(
                StaticIntervalReport(
                    node=v,
                    interval=interval,
                    changes_after_grace=changes,
                    stabilised=stabilised,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Theorem 1.1(1) — T-dynamic solution every round
# ---------------------------------------------------------------------------

def verify_t_dynamic(
    trace: ExecutionTrace,
    pair: ProblemPair,
    T: int,
    *,
    start_round: int = 1,
    raise_on_failure: bool = False,
) -> List[str]:
    """Check that every round's output is a ``T``-dynamic solution.

    Returns human-readable violation descriptions; optionally raises
    :class:`~repro.errors.VerificationError` on the first failure.
    """
    spec = TDynamicSpec(pair, T)
    problems: List[str] = []
    for result in spec.check_trace(trace, start_round=start_round):
        if not result.is_valid:
            message = (
                f"round {result.round_index}: T-dynamic violation "
                f"(packing={list(result.packing_violations)[:5]}, "
                f"covering={list(result.covering_violations)[:5]}, "
                f"undecided={list(result.undecided_nodes)[:5]})"
            )
            if raise_on_failure:
                raise VerificationError(message)
            problems.append(message)
    return problems
