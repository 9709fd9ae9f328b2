"""The recorded dynamic graph ``G_1, G_2, …`` and its window queries.

A :class:`DynamicGraph` is the append-only record of the adversary-provided
graph sequence.  It enforces the model constraints of Section 2:

* the awake node set is non-decreasing (``V_{r} ⊆ V_{r+1}``), and
* every node id stays within the potential node set ``{0, …, n-1}`` where
  ``n`` is the globally known upper bound on the number of nodes.

Every round is recorded by :meth:`DynamicGraph.append` as the
:class:`~repro.dynamics.topology.TopologyDelta` from the previous round, so
validation and storage cost O(#changes).  When the caller already holds the
round's graph (the classic simulator loops), it is kept as the latest graph
and, every :data:`CHECKPOINT_INTERVAL`-th round, stored as a full snapshot
instead of the delta, so any round is reconstructed by replaying at most
``CHECKPOINT_INTERVAL - 1`` deltas.  Array-kernel rounds are delta-only: no
graph is built while the run records them.  All accessors (``topology(r)``,
window queries, change statistics) materialise transparently, and a
one-entry cursor cache makes sequential scans — by far the dominant access
pattern of the checkers — cost one delta application per step.

On top of the raw sequence it offers the sliding-window queries of
Definition 2.1 (``G^{T∩}_r``, ``G^{T∪}_r``), recomputed from the stored
history; they are the only implementation of that definition.  Per round
they materialise the window's ``T`` graphs; :meth:`DynamicGraph.windows`
answers a run of consecutive rounds in one forward walk instead.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import TopologyError
from repro.types import Edge, Interval, NodeId
from repro.dynamics.topology import Topology, TopologyDelta, empty_topology

__all__ = ["DynamicGraph", "CHECKPOINT_INTERVAL"]

#: Rounds between the snapshots stored when rounds are appended with their graph.
CHECKPOINT_INTERVAL = 32


class DynamicGraph:
    """Append-only record of a dynamic graph over ``n`` potential nodes.

    Round indexing follows the paper: the first recorded topology is round 1;
    ``G_0`` is the empty graph (all nodes asleep).

    Parameters
    ----------
    n:
        Upper bound on the number of nodes; all node ids must be ``< n``.
    """

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise TopologyError(f"n must be a positive integer, got {n!r}")
        self._n = n
        #: Per round: a Topology checkpoint or a TopologyDelta relative to r-1.
        self._entries: List[Union[Topology, TopologyDelta]] = []
        #: ``G_{last_round}`` when known (``None`` after a delta-only append).
        self._latest: Optional[Topology] = None
        # One-entry materialisation cursor (round, topology) for sequential scans.
        self._cursor_round = 0
        self._cursor_topo = empty_topology()

    # -- recording ---------------------------------------------------------

    @property
    def n(self) -> int:
        """The globally known upper bound on the number of nodes."""
        return self._n

    @property
    def last_round(self) -> int:
        """The index of the most recently recorded round (0 if none)."""
        return len(self._entries)

    def append(self, delta: TopologyDelta, topology: Optional[Topology] = None) -> None:
        """Record the next round as ``delta`` from the previous round (``G_0`` is empty).

        Validation is O(#changes): only the added nodes are range-checked and
        the model's non-decreasing awake set is enforced by rejecting node
        removals.  ``topology`` is the round's graph if the caller already
        holds it (``previous.apply(delta)``); it is then kept as the latest
        graph and stored as a checkpoint every :data:`CHECKPOINT_INTERVAL`
        rounds.  Without it the round is stored as the delta alone and
        materialised only when someone asks for it.

        Raises
        ------
        TopologyError
            If the delta wakes a node id ``>= n`` or removes an awake node.
        """
        for v in delta.added_nodes:
            if not 0 <= v < self._n:
                raise TopologyError(f"node id {v} outside potential node set [0, {self._n})")
        if delta.removed_nodes:
            raise TopologyError(
                "awake node set must be non-decreasing; nodes disappeared: "
                f"{sorted(delta.removed_nodes)[:10]}"
            )
        entries = self._entries
        if topology is not None and len(entries) % CHECKPOINT_INTERVAL == 0:
            entries.append(topology)
        else:
            entries.append(delta)
        self._latest = topology

    # -- access to recorded rounds -------------------------------------------

    def _materialise(self, r: int) -> Topology:
        """Materialise ``G_r`` (``1 <= r <= last_round``), moving the cursor."""
        if r == self._cursor_round:
            return self._cursor_topo
        entries = self._entries
        if r == len(entries) and self._latest is not None:
            topo = self._latest
        else:
            entry = entries[r - 1]
            if isinstance(entry, Topology):
                topo = entry
            elif self._cursor_round == r - 1:
                topo = self._cursor_topo.apply(entry)
            else:
                # Walk back to the nearest snapshot (round 0 = empty graph),
                # then replay the deltas forward.
                i = r - 2
                while i >= 0 and not isinstance(entries[i], Topology):
                    i -= 1
                topo = entries[i] if i >= 0 else empty_topology()
                for j in range(i + 1, r):
                    topo = topo.apply(entries[j])
        self._cursor_round = r
        self._cursor_topo = topo
        return topo

    def topology(self, r: int) -> Topology:
        """Return ``G_r`` (round indices start at 1); ``G_0`` is the empty graph."""
        if r == 0:
            return empty_topology()
        if not 1 <= r <= len(self._entries):
            raise TopologyError(f"round {r} has not been recorded (last = {self.last_round})")
        return self._materialise(r)

    def iter_topologies(self) -> Iterator[Topology]:
        """Materialise all recorded topologies in round order, one delta apply per step."""
        for r in range(1, len(self._entries) + 1):
            yield self._materialise(r)

    def topologies(self) -> Sequence[Topology]:
        """All recorded topologies, round 1 first (materialised)."""
        return tuple(self.iter_topologies())

    def awake_nodes(self, r: int) -> FrozenSet[NodeId]:
        """``V_r``: the awake node set in round ``r``."""
        return self.topology(r).nodes

    # -- window queries (Definition 2.1) --------------------------------------

    def _window_rounds(self, r: int, T: int) -> tuple[bool, Sequence[Topology]]:
        """Return ``(includes_round_zero, topologies of rounds max(1, r-T+1) … r)``.

        Definition 2.1 sets ``r0 = max(0, r - T + 1)`` and ``G_0`` is the empty
        graph (all nodes asleep, ``V_0 = ∅``).  Whenever the window reaches
        back to round 0 the intersection node set is therefore empty.

        Raises
        ------
        TopologyError
            If ``T`` is not an integer ``>= 1`` or round ``r`` is not recorded.
        """
        _check_window_size(T)
        self._check_recorded(r)
        r0 = max(0, r - T + 1)
        includes_zero = r0 == 0
        first = max(1, r0)
        return includes_zero, [self._materialise(i) for i in range(first, r + 1)]

    def _check_recorded(self, r: int) -> None:
        if not 1 <= r <= len(self._entries):
            raise TopologyError(f"round {r} has not been recorded (last = {self.last_round})")

    def intersection_graph(self, r: int, T: int) -> Topology:
        """``G^{T∩}_r``: nodes and edges present in every round of the window.

        Per Definition 2.1 the window reaches back to round ``r - T + 1``; if
        that is ``<= 0`` the (empty) graph ``G_0`` is part of the window and
        the intersection is empty — no node has been awake for ``T`` rounds yet.
        """
        includes_zero, rounds = self._window_rounds(r, T)
        return empty_topology() if includes_zero else _intersection(rounds)

    def union_graph(self, r: int, T: int) -> Topology:
        """``G^{T∪}_r``: every edge present at least once in the window.

        Definition 2.1 gives the union graph the node set ``V^{T∩}_r`` but the
        *unrestricted* edge set ``E^{T∪}_r`` — a node's union degree counts
        every neighbour it has seen during the window, including neighbours
        that woke up recently (this is exactly the "number of distinct
        neighbours seen in the last T rounds" bound of Corollary 1.2).  The
        returned topology therefore contains ``V^{T∩}_r`` plus any endpoint of
        a union edge; only the nodes of :meth:`intersection_graph` are
        *constrained* by the T-dynamic checker.
        """
        includes_zero, rounds = self._window_rounds(r, T)
        return empty_topology() if includes_zero else _union(rounds)

    def windows(
        self, T: int, start: int = 1, end: Optional[int] = None
    ) -> Iterator[Tuple[int, Topology, Topology]]:
        """Yield ``(r, G^{T∩}_r, G^{T∪}_r)`` for ``r = start … end`` (default: the last round).

        The same graphs as :meth:`intersection_graph` and :meth:`union_graph`
        round by round, from one forward walk: each recorded graph is
        materialised once (one delta apply per round) and the window slides
        over a queue of its ``T`` graphs, so a delta-only (array-kernel)
        record is never replayed from ``G_0`` per round.
        """
        _check_window_size(T)
        end = self.last_round if end is None else min(end, self.last_round)
        if start > end:
            return
        self._check_recorded(start)
        window: deque = deque(maxlen=T)
        for r in range(max(1, start - T + 1), end + 1):
            window.append(self._materialise(r))
            if r < start:
                continue
            if r < T:  # the window reaches back to the empty G_0
                yield r, empty_topology(), empty_topology()
            else:
                yield r, _intersection(window), _union(window)

    # -- stability predicates ---------------------------------------------

    def is_static_on(self, nodes: Iterable[NodeId], interval: Interval) -> bool:
        """Whether the subgraph induced by ``nodes`` is identical in every round of ``interval``.

        This is the hypothesis of the locally-static guarantees
        (``G_l[N^α(v)] = G_{l'}[N^α(v)]`` for all ``l, l'`` in the interval).
        """
        keep = frozenset(nodes)
        if interval.end > self.last_round or interval.start < 1:
            raise TopologyError(
                f"interval {interval} outside recorded rounds [1, {self.last_round}]"
            )
        reference = self.topology(interval.start)
        for r in range(interval.start + 1, interval.end + 1):
            if not reference.restricted_equals(self.topology(r), keep):
                return False
        return True

    def static_ball_interval(self, center: NodeId, alpha: int, interval: Interval) -> bool:
        """Whether the ``alpha``-neighbourhood of ``center`` is static throughout ``interval``.

        The ball is evaluated on the topology at ``interval.start`` (if the
        ball's induced subgraph never changes, the ball itself is the same in
        every round of the interval, so the choice of reference round is
        immaterial).
        """
        ball = self.topology(interval.start).ball(center, alpha)
        if not ball:
            return False
        return self.is_static_on(ball, interval)

    # -- change statistics ---------------------------------------------------

    def edge_changes(self, r: int) -> tuple[FrozenSet[Edge], FrozenSet[Edge]]:
        """Return ``(inserted, deleted)`` edges between rounds ``r-1`` and ``r``."""
        if r < 1:
            raise TopologyError(f"round must be >= 1, got {r}")
        if 1 <= r <= len(self._entries):
            entry = self._entries[r - 1]
            if isinstance(entry, TopologyDelta):
                # Stored deltas are exact (enforced by Topology.apply), so this
                # equals the diff of the materialised snapshots.
                return entry.added_edges, entry.removed_edges
        prev = self.topology(r - 1) if r > 1 else empty_topology()
        cur = self.topology(r)
        return cur.edges - prev.edges, prev.edges - cur.edges

    def churn_per_round(self) -> List[int]:
        """Number of edge insertions + deletions per recorded round."""
        counts: List[int] = []
        for r in range(1, self.last_round + 1):
            ins, dele = self.edge_changes(r)
            counts.append(len(ins) + len(dele))
        return counts


def _check_window_size(T: int) -> None:
    if not isinstance(T, int) or isinstance(T, bool) or T < 1:
        raise TopologyError(f"window size T must be an integer >= 1, got T={T!r}")


def _intersection(rounds: Iterable[Topology]) -> Topology:
    """The nodes and edges present in every graph of a (non-empty) window."""
    it = iter(rounds)
    first = next(it)
    nodes: FrozenSet[NodeId] = first.nodes
    edges: FrozenSet[Edge] = first.edges
    for topo in it:
        nodes &= topo.nodes
        edges &= topo.edges
    edges = frozenset(e for e in edges if e[0] in nodes and e[1] in nodes)
    return Topology(nodes, edges)


def _union(rounds: Iterable[Topology]) -> Topology:
    """The intersection's nodes plus every edge (and endpoint) seen in a window."""
    it = iter(rounds)
    nodes: FrozenSet[NodeId] = next(it).nodes
    for topo in it:
        nodes &= topo.nodes
    edges: set[Edge] = set()
    for topo in rounds:
        edges.update(topo.edges)
    node_set = set(nodes)
    for u, v in edges:
        node_set.add(u)
        node_set.add(v)
    return Topology(node_set, edges)
