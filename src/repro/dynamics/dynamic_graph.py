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
graph is built while the run records them.  The round accessors
(``topology(r)``, change statistics) materialise transparently, and a
one-entry cursor cache makes sequential scans cost one delta application
per step.

On top of the raw sequence it answers the sliding-window queries of
Definition 2.1 (``G^{T∩}_r``, ``G^{T∪}_r``); they are the only
implementation of that definition.  A :class:`WindowWalk` replays the
stored rounds forward once and keeps a few round stamps per node and per
edge, updated in O(#changes) a round; for every window size ``T`` the
window's node and edge sets are then array masks over those stamps.  No
window graph is built unless a caller asks for one
(:meth:`DynamicGraph.intersection_graph` / :meth:`DynamicGraph.union_graph`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TopologyError
from repro.types import Edge, Interval, NodeId
from repro.dynamics.topology import Topology, TopologyDelta, empty_topology

__all__ = ["DynamicGraph", "WindowWalk", "CHECKPOINT_INTERVAL"]

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
        #: The walk behind the window queries (see :meth:`window_at`).
        self._walk: Optional[WindowWalk] = None

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

    def window_at(self, r: int) -> "WindowWalk":
        """The graph's own :class:`WindowWalk`, advanced to round ``r``.

        Ascending queries share one forward walk; a query behind it starts
        a new walk from round 1.

        Raises
        ------
        TopologyError
            If round ``r`` is not recorded.
        """
        self._check_recorded(r)
        walk = self._walk
        if walk is None or walk.round > r:
            walk = self._walk = WindowWalk(self)
        walk.advance_to(r)
        return walk

    def _check_recorded(self, r: int) -> None:
        if not 1 <= r <= len(self._entries):
            raise TopologyError(f"round {r} has not been recorded (last = {self.last_round})")

    def intersection_graph(self, r: int, T: int) -> Topology:
        """``G^{T∩}_r``: nodes and edges present in every round of the window.

        Per Definition 2.1 the window reaches back to round ``r - T + 1``; if
        that is ``<= 0`` the (empty) graph ``G_0`` is part of the window and
        the intersection is empty — no node has been awake for ``T`` rounds yet.
        """
        _check_window_size(T)
        walk = self.window_at(r)
        nodes = walk.constrained(T)
        if nodes is None:
            return empty_topology()
        u, v = walk.intersection_edges(T)
        return Topology.from_arrays(np.flatnonzero(nodes), u, v)

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
        _check_window_size(T)
        walk = self.window_at(r)
        nodes = walk.constrained(T)
        if nodes is None:
            return empty_topology()
        u, v = walk.union_edges(T)
        return Topology.from_arrays(np.union1d(np.flatnonzero(nodes), np.union1d(u, v)), u, v)

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


#: ``woke`` of a node that has not woken up (later than any round).
_ASLEEP = np.iinfo(np.int64).max


class WindowWalk:
    """Definition 2.1's windows from one forward walk over a :class:`DynamicGraph`.

    Every edge gets an id the first time it appears.  After :meth:`advance`
    has replayed rounds ``1 … r`` the walk holds

    * ``woke[v]``: the round node ``v`` woke up (:data:`_ASLEEP` if it has not);
    * ``born[e]``: the round edge ``e`` was last inserted;
    * ``last[e]``: the last round edge ``e`` was present before its latest
      removal;
    * ``present[e]``: whether edge ``e`` is present in ``G_r``,

    each updated in O(#changes) per round from the stored delta (a
    checkpoint round is diffed against ``present``).  For any window size
    ``T`` with ``r0 = r - T + 1 >= 1`` (awake sets never shrink, and an edge
    present throughout ``[r0, r]`` was last inserted by ``r0``):

    * ``V^{T∩}_r = {v : woke[v] <= r0}``;
    * ``E^{T∩}_r = {e : present[e] and born[e] <= r0}``;
    * ``E^{T∪}_r = {e : present[e] or last[e] >= r0}``.

    When ``r0 <= 0`` the window reaches the empty ``G_0`` and all three are
    empty.
    """

    __slots__ = ("_graph", "round", "woke", "_ids", "_eu", "_ev", "_born", "_last", "_present")

    def __init__(self, graph: DynamicGraph) -> None:
        self._graph = graph
        #: The last replayed round (0 before the first :meth:`advance`).
        self.round = 0
        self.woke = np.full(graph.n, _ASLEEP, dtype=np.int64)
        self._ids: Dict[Edge, int] = {}
        self._eu = np.empty(0, dtype=np.int64)
        self._ev = np.empty(0, dtype=np.int64)
        self._born = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.int64)
        self._present = np.empty(0, dtype=bool)

    def advance(self) -> None:
        """Replay the next recorded round."""
        r = self.round + 1
        self._graph._check_recorded(r)
        entry = self._graph._entries[r - 1]
        if isinstance(entry, Topology):
            added_nodes, added, removed = self._checkpoint_changes(entry)
        else:
            added_nodes, added, removed = entry.added_nodes, entry.added_edges, entry.removed_edges
        if len(added_nodes):
            self.woke[np.fromiter(added_nodes, np.int64, len(added_nodes))] = r
        ids = self._ids
        if removed:
            gone = np.fromiter((ids[e] for e in removed), np.int64, len(removed))
            self._present[gone] = False
            self._last[gone] = r - 1
        if added:
            seen = len(ids)
            got = np.fromiter((ids.setdefault(e, len(ids)) for e in added), np.int64, len(added))
            if len(ids) > seen:
                self._register([e for e, i in zip(added, got.tolist()) if i >= seen])
            self._born[got] = r
            self._present[got] = True
        self.round = r

    def advance_to(self, r: int) -> None:
        """Replay rounds up to ``r`` (no-op if the walk is already there)."""
        while self.round < r:
            self.advance()

    def _register(self, edges: List[Edge]) -> None:
        """Give ``edges`` (new, in id order) their endpoint slots."""
        m = len(self._ids)
        if m > self._eu.size:
            grow = max(m, 2 * self._eu.size) - self._eu.size
            self._eu = np.concatenate((self._eu, np.empty(grow, np.int64)))
            self._ev = np.concatenate((self._ev, np.empty(grow, np.int64)))
            self._born = np.concatenate((self._born, np.empty(grow, np.int64)))
            self._last = np.concatenate((self._last, np.zeros(grow, np.int64)))
            self._present = np.concatenate((self._present, np.zeros(grow, bool)))
        first = m - len(edges)
        self._eu[first:m] = [u for u, _ in edges]
        self._ev[first:m] = [v for _, v in edges]

    def _checkpoint_changes(self, topology: Topology):
        """``(added nodes, added edges, removed edges)`` from the walk's round to ``topology``."""
        nodes = np.fromiter(topology.nodes, np.int64, topology.num_nodes)
        added_nodes = nodes[self.woke[nodes] == _ASLEEP]
        ids, present, edges = self._ids, self._present, topology.edges
        added = [e for e in edges if e not in ids or not present[ids[e]]]
        live = np.flatnonzero(present[: len(ids)])
        removed = [
            e for e in zip(self._eu[live].tolist(), self._ev[live].tolist()) if e not in edges
        ]
        return added_nodes, added, removed

    # -- Definition 2.1 over the current round --------------------------------

    def constrained(self, T: int) -> Optional[np.ndarray]:
        """``V^{T∩}_r`` as a bool mask over the ``n`` node ids (``None`` when ``r0 <= 0``)."""
        r0 = self.round - T + 1
        if r0 <= 0:
            return None
        return self.woke <= r0

    def intersection_edges(self, T: int) -> Tuple[np.ndarray, np.ndarray]:
        """``E^{T∩}_r`` as canonical endpoint arrays ``(u, v)`` (requires ``r0 >= 1``)."""
        m = len(self._ids)
        mask = self._present[:m] & (self._born[:m] <= self.round - T + 1)
        return self._eu[:m][mask], self._ev[:m][mask]

    def union_edges(self, T: int) -> Tuple[np.ndarray, np.ndarray]:
        """``E^{T∪}_r`` as canonical endpoint arrays ``(u, v)`` (requires ``r0 >= 1``)."""
        m = len(self._ids)
        mask = self._present[:m] | (self._last[:m] >= self.round - T + 1)
        return self._eu[:m][mask], self._ev[:m][mask]
