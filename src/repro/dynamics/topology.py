"""Immutable per-round graph snapshots and the deltas between them.

A :class:`Topology` is the communication graph ``G_r = (V_r, E_r)`` of a
single round: the set of awake nodes and the set of undirected edges between
them.  Topologies are immutable so that recorded traces cannot be mutated
after the fact, and hashable edge/neighbour queries are O(1).

The paper's model (and the highly-dynamic literature in general) describes a
round as a *small set of changes* applied to the previous graph.
:class:`TopologyDelta` is that change set — added/removed nodes and edges —
and :meth:`Topology.apply` materialises the successor graph from it while
structurally sharing every untouched neighbour set (and, when possible, the
node and edge frozensets) with the predecessor, so the per-round cost is
proportional to the amount of change rather than to the graph size.

The class intentionally does not depend on :mod:`networkx` for its hot-path
operations (neighbour iteration during message delivery); conversion helpers
are provided for analysis code that wants the richer networkx API.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.types import Edge, NodeId, canonical_edge

__all__ = [
    "ArrayDelta",
    "Topology",
    "TopologyDelta",
    "EMPTY_DELTA",
    "empty_topology",
    "topology_from_networkx",
]

_EMPTY_NODES: FrozenSet[NodeId] = frozenset()
_EMPTY_EDGES: FrozenSet[Edge] = frozenset()


def _node_set(nodes: Iterable[NodeId]) -> FrozenSet[NodeId]:
    """Coerce to a frozenset of ints (trusting an existing frozenset)."""
    if isinstance(nodes, frozenset):
        return nodes
    return frozenset(int(v) for v in nodes)


def _edge_set(edges: Iterable[Tuple[NodeId, NodeId]]) -> FrozenSet[Edge]:
    """Canonicalise to a frozenset of edges.

    An already-canonical frozenset (the common case — every producer in
    :mod:`repro.dynamics` maintains canonical ``(min, max)`` tuples) is
    returned as-is after an O(#changes) order check; anything else is
    canonicalised edge by edge.
    """
    if isinstance(edges, frozenset):
        if all(u < v for u, v in edges):
            return edges
        return frozenset(canonical_edge(u, v) for u, v in edges)
    return frozenset(canonical_edge(u, v) for u, v in edges)


class TopologyDelta:
    """The change set between two consecutive topologies.

    A delta is *exact*: added items must be absent from the predecessor and
    removed items must be present (checked by :meth:`Topology.apply`), so a
    stored delta is always byte-identical to the from-scratch diff of the two
    snapshots it connects.

    Parameters
    ----------
    added_nodes / removed_nodes:
        Nodes that wake up / disappear.  (The simulator's dynamic-graph model
        never removes awake nodes, but the delta type itself is general.)
    added_edges / removed_edges:
        Undirected edges inserted / deleted; canonicalised unless already
        given as frozensets of canonical edges.
    """

    __slots__ = ("added_nodes", "removed_nodes", "added_edges", "removed_edges")

    def __init__(
        self,
        *,
        added_nodes: Iterable[NodeId] = _EMPTY_NODES,
        removed_nodes: Iterable[NodeId] = _EMPTY_NODES,
        added_edges: Iterable[Tuple[NodeId, NodeId]] = _EMPTY_EDGES,
        removed_edges: Iterable[Tuple[NodeId, NodeId]] = _EMPTY_EDGES,
    ) -> None:
        object.__setattr__(self, "added_nodes", _node_set(added_nodes))
        object.__setattr__(self, "removed_nodes", _node_set(removed_nodes))
        object.__setattr__(self, "added_edges", _edge_set(added_edges))
        object.__setattr__(self, "removed_edges", _edge_set(removed_edges))
        if self.added_nodes & self.removed_nodes:
            raise TopologyError("a node cannot be both added and removed in one delta")
        if self.added_edges & self.removed_edges:
            raise TopologyError("an edge cannot be both added and removed in one delta")

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError("TopologyDelta is immutable")

    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not (
            self.added_nodes or self.removed_nodes or self.added_edges or self.removed_edges
        )

    def __bool__(self) -> bool:
        return not self.is_empty()

    @property
    def num_changes(self) -> int:
        """Total number of node + edge changes."""
        return (
            len(self.added_nodes)
            + len(self.removed_nodes)
            + len(self.added_edges)
            + len(self.removed_edges)
        )

    def touched_nodes(self) -> FrozenSet[NodeId]:
        """Every node whose awake state or neighbourhood this delta changes."""
        touched = set(self.added_nodes) | set(self.removed_nodes)
        for u, v in self.added_edges:
            touched.add(u)
            touched.add(v)
        for u, v in self.removed_edges:
            touched.add(u)
            touched.add(v)
        return frozenset(touched)

    @classmethod
    def between(cls, before: "Topology", after: "Topology") -> "TopologyDelta":
        """The exact delta with ``before.apply(delta) == after``."""
        return cls(
            added_nodes=after._nodes - before._nodes,
            removed_nodes=before._nodes - after._nodes,
            added_edges=after._edges - before._edges,
            removed_edges=before._edges - after._edges,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyDelta):
            return NotImplemented
        return (
            self.added_nodes == other.added_nodes
            and self.removed_nodes == other.removed_nodes
            and self.added_edges == other.added_edges
            and self.removed_edges == other.removed_edges
        )

    def __hash__(self) -> int:
        return hash((self.added_nodes, self.removed_nodes, self.added_edges, self.removed_edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopologyDelta(+{len(self.added_nodes)}n/-{len(self.removed_nodes)}n, "
            f"+{len(self.added_edges)}e/-{len(self.removed_edges)}e)"
        )


#: The delta that changes nothing (``topology.apply(EMPTY_DELTA) is topology``).
EMPTY_DELTA = TopologyDelta()


class ArrayDelta(TopologyDelta):
    """A :class:`TopologyDelta` backed by universe index arrays.

    The array kernel's round loop produces topology changes as indices into
    a static canonical edge universe (``eu[i] < ev[i]``, see
    :class:`repro.kernel.csr.EdgeUniverse`).  Materialising python frozensets
    for every round would negate the vectorisation win, so this subclass
    keeps the arrays and builds the edge frozensets *lazily* — only trace
    consumers that actually materialise topologies (window probes, the
    verification gates, analysis code) ever pay for them.

    The parent's ``__init__`` is deliberately not called: its slots are
    shadowed by properties, node removal is impossible by construction
    (``removed_nodes`` is always empty — the dynamic-graph model never
    removes awake nodes), and exactness of the added/removed split is
    guaranteed by the engine's presence-mask diff.
    """

    __slots__ = (
        "_array_added_nodes",
        "_array_nodes_cache",
        "_array_eu",
        "_array_ev",
        "_array_added_idx",
        "_array_removed_idx",
        "_array_added_cache",
        "_array_removed_cache",
    )

    def __init__(
        self,
        added_nodes: "object",
        eu: "object",
        ev: "object",
        added_idx: "object",
        removed_idx: "object",
    ) -> None:
        """``added_nodes`` is an int64 id array *or* an already-built frozenset."""
        set_ = object.__setattr__
        if isinstance(added_nodes, frozenset):
            set_(self, "_array_added_nodes", None)
            set_(self, "_array_nodes_cache", added_nodes)
        else:
            set_(self, "_array_added_nodes", added_nodes)
            set_(self, "_array_nodes_cache", None)
        set_(self, "_array_eu", eu)
        set_(self, "_array_ev", ev)
        set_(self, "_array_added_idx", added_idx)
        set_(self, "_array_removed_idx", removed_idx)
        set_(self, "_array_added_cache", None)
        set_(self, "_array_removed_cache", None)

    def _edges_at(self, idx: "object") -> FrozenSet[Edge]:
        return frozenset(
            zip(self._array_eu[idx].tolist(), self._array_ev[idx].tolist())
        )

    @property
    def added_nodes(self) -> FrozenSet[NodeId]:
        cache = self._array_nodes_cache
        if cache is None:
            cache = frozenset(self._array_added_nodes.tolist())
            object.__setattr__(self, "_array_nodes_cache", cache)
        return cache

    @property
    def num_changes(self) -> int:
        # O(1) from the array lengths — no frozenset materialisation.
        nodes = self._array_nodes_cache
        added = len(nodes) if self._array_added_nodes is None else len(self._array_added_nodes)
        return added + len(self._array_added_idx) + len(self._array_removed_idx)

    @property
    def removed_nodes(self) -> FrozenSet[NodeId]:
        return _EMPTY_NODES

    @property
    def added_edges(self) -> FrozenSet[Edge]:
        cache = self._array_added_cache
        if cache is None:
            cache = self._edges_at(self._array_added_idx)
            object.__setattr__(self, "_array_added_cache", cache)
        return cache

    @property
    def removed_edges(self) -> FrozenSet[Edge]:
        cache = self._array_removed_cache
        if cache is None:
            cache = self._edges_at(self._array_removed_idx)
            object.__setattr__(self, "_array_removed_cache", cache)
        return cache


class Topology:
    """An immutable simple undirected graph over a set of awake nodes.

    Parameters
    ----------
    nodes:
        The awake node set ``V_r``.
    edges:
        Undirected edges; each edge's endpoints must be members of ``nodes``.
        Edges may be given in any orientation; they are canonicalised.

    Notes
    -----
    Isolated nodes are allowed (and are how the model encodes nodes that have
    "left" the network, see Section 2).  Self-loops and edges to sleeping
    nodes are rejected.
    """

    __slots__ = ("_nodes", "_edges", "_adjacency", "_hash", "_sorted_edges")

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]) -> None:
        node_set = frozenset(int(v) for v in nodes)
        canonical: set[Edge] = set()
        adjacency: Dict[NodeId, set[NodeId]] = {v: set() for v in node_set}
        for u, v in edges:
            e = canonical_edge(int(u), int(v))
            if e[0] not in node_set or e[1] not in node_set:
                raise TopologyError(
                    f"edge {e} references a node outside the awake node set"
                )
            if e not in canonical:
                canonical.add(e)
                adjacency[e[0]].add(e[1])
                adjacency[e[1]].add(e[0])
        self._nodes: FrozenSet[NodeId] = node_set
        self._edges: FrozenSet[Edge] = frozenset(canonical)
        self._adjacency: Dict[NodeId, FrozenSet[NodeId]] = {
            v: frozenset(neigh) for v, neigh in adjacency.items()
        }
        self._hash: int | None = None
        self._sorted_edges: Tuple[Edge, ...] | None = None

    @classmethod
    def from_arrays(cls, nodes: Iterable[NodeId], u: np.ndarray, v: np.ndarray) -> "Topology":
        """Build from integer edge arrays, one canonical edge ``(u[i], v[i])`` each.

        The result equals ``Topology(nodes, sorted(zip(u, v)))`` in content
        *and* in the iteration order of :attr:`nodes`, :attr:`edges` and every
        :meth:`neighbors` set, and :meth:`sorted_edges` comes for free.  The
        checks are array-wide numpy passes instead of per-edge Python work.

        Raises
        ------
        TopologyError
            If an array is not a 1-D integer array, the lengths differ, an
            edge is not canonical (``u >= v``), an endpoint is negative or not
            in ``nodes``, or a pair occurs twice.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        for name, arr in (("u", u), ("v", v)):
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise TopologyError(
                    f"edge array {name} must be a 1-D integer array, "
                    f"got dtype {arr.dtype} with shape {arr.shape}"
                )
        if u.size != v.size:
            raise TopologyError(f"edge arrays differ in length: {u.size} != {v.size}")
        u = u.astype(np.int64, copy=False)
        v = v.astype(np.int64, copy=False)
        bad = np.flatnonzero(u >= v)
        if bad.size:
            i = int(bad[0])
            raise TopologyError(f"edge {i} is not canonical: u >= v in ({u[i]}, {v[i]})")
        if u.size and int(u.min()) < 0:
            raise TopologyError(f"negative endpoint {int(u.min())} in the edge arrays")
        if isinstance(nodes, np.ndarray):
            nodes = nodes.tolist()
        node_set = frozenset(int(x) for x in nodes)
        node_arr = np.fromiter(node_set, dtype=np.int64, count=len(node_set))
        outside = np.flatnonzero(~(np.isin(u, node_arr) & np.isin(v, node_arr)))
        if outside.size:
            i = int(outside[0])
            raise TopologyError(
                f"edge ({u[i]}, {v[i]}) references a node outside the awake node set"
            )
        if u.size > 1:
            du = np.diff(u)
            if not np.all((du > 0) | ((du == 0) & (np.diff(v) > 0))):
                order = np.lexsort((v, u))
                u, v = u[order], v[order]
                dup = np.flatnonzero((u[1:] == u[:-1]) & (v[1:] == v[:-1]))
                if dup.size:
                    i = int(dup[0])
                    raise TopologyError(f"duplicate edge ({u[i]}, {v[i]}) in the edge arrays")

        # Set iteration order is visible in the rows (TargetedMisAdversary
        # iterates base.neighbors(v) before its shuffle), and a set's order
        # depends on its insertion history, not only on its content.  So
        # every set is built by the insertion sequence __init__ performs over
        # sorted edges: set(list) adds one element at a time exactly like
        # set.add, and frozenset(set) is the same final copy.  Over sorted
        # edges each node receives its neighbours in ascending order: first
        # the smaller ones (as the v of earlier edges), then the larger ones.
        edge_list = list(zip(u.tolist(), v.tolist()))
        adjacency: Dict[NodeId, FrozenSet[NodeId]] = dict.fromkeys(node_set, _EMPTY_NODES)
        if edge_list:
            src = np.concatenate((v, u))
            order = np.argsort(src, kind="stable")
            src = src[order]
            dst = np.concatenate((u, v))[order].tolist()
            cuts = (np.flatnonzero(src[1:] != src[:-1]) + 1).tolist()
            starts = [0] + cuts
            ends = cuts + [len(dst)]
            for node, a, b in zip(src[starts].tolist(), starts, ends):
                adjacency[node] = frozenset(set(dst[a:b]))
        topology = cls.__new__(cls)
        topology._nodes = node_set
        topology._edges = frozenset(set(edge_list))
        topology._adjacency = adjacency
        topology._hash = None
        topology._sorted_edges = tuple(edge_list)
        return topology

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        """The awake node set ``V_r``."""
        return self._nodes

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The canonicalised undirected edge set ``E_r``."""
        return self._edges

    @property
    def num_nodes(self) -> int:
        """Number of awake nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def has_node(self, v: NodeId) -> bool:
        """Whether ``v`` is awake in this round."""
        return v in self._nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        return canonical_edge(u, v) in self._edges

    def sorted_edges(self) -> Tuple[Edge, ...]:
        """The edges in lexicographic order (cached; the kernel universe order)."""
        if self._sorted_edges is None:
            self._sorted_edges = tuple(sorted(self._edges))
        return self._sorted_edges

    def neighbors(self, v: NodeId) -> FrozenSet[NodeId]:
        """The neighbour set ``N_{G_r}(v)``; empty for sleeping nodes."""
        return self._adjacency.get(v, frozenset())

    def degree(self, v: NodeId) -> int:
        """The degree ``d_r(v)``; 0 for sleeping nodes."""
        return len(self._adjacency.get(v, ()))

    def adjacency(self) -> Mapping[NodeId, FrozenSet[NodeId]]:
        """The full adjacency mapping (read-only view, no copy)."""
        return MappingProxyType(self._adjacency)

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, nodes: AbstractSet[NodeId]) -> "Topology":
        """Return the subgraph induced by ``nodes ∩ V_r``."""
        keep = self._nodes & frozenset(nodes)
        edges = [e for e in self._edges if e[0] in keep and e[1] in keep]
        return Topology(keep, edges)

    def ball(self, center: NodeId, radius: int) -> FrozenSet[NodeId]:
        """Return the ``radius``-neighbourhood ``N^radius(center)`` (including the centre).

        Used to express the paper's "α-neighbourhood of v is static" conditions.
        """
        if center not in self._nodes:
            return frozenset()
        if radius < 0:
            raise TopologyError(f"radius must be >= 0, got {radius}")
        frontier = {center}
        seen = {center}
        for _ in range(radius):
            nxt: set[NodeId] = set()
            for u in frontier:
                nxt.update(self._adjacency.get(u, ()))
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return frozenset(seen)

    def induced_edges(self, nodes: AbstractSet[NodeId]) -> FrozenSet[Edge]:
        """Edges of this topology with both endpoints in ``nodes``."""
        keep = frozenset(nodes)
        return frozenset(e for e in self._edges if e[0] in keep and e[1] in keep)

    def with_edges(
        self,
        add: Iterable[Tuple[NodeId, NodeId]] = (),
        remove: Iterable[Tuple[NodeId, NodeId]] = (),
    ) -> "Topology":
        """Return a copy with ``add`` edges inserted and ``remove`` edges deleted."""
        edges = set(self._edges)
        for u, v in remove:
            edges.discard(canonical_edge(u, v))
        for u, v in add:
            edges.add(canonical_edge(u, v))
        return Topology(self._nodes, edges)

    def with_nodes(self, add: Iterable[NodeId]) -> "Topology":
        """Return a copy with extra awake (isolated) nodes added."""
        return Topology(self._nodes | frozenset(int(v) for v in add), self._edges)

    # -- incremental construction ------------------------------------------

    def apply(self, delta: TopologyDelta) -> "Topology":
        """Return the successor topology ``G' = G ± delta``.

        The result structurally shares every untouched neighbour frozenset
        (and the node/edge frozensets when they did not change) with ``self``,
        so the cost is O(#changes) of Python-level work plus C-speed set
        operations — not O(n + m) re-validation.

        The delta must be *exact* relative to ``self``:

        * added nodes must not be awake yet, removed nodes must be awake and
          isolated after the edge removals;
        * added edges must be absent (with both endpoints awake afterwards),
          removed edges must be present.

        Raises
        ------
        TopologyError
            If the delta is not exact (which would silently desynchronise a
            delta-encoded trace from its snapshots).

        An empty delta returns ``self`` unchanged (same object).
        """
        if delta.is_empty():
            return self
        nodes = self._nodes
        edges = self._edges
        added_nodes = delta.added_nodes
        removed_nodes = delta.removed_nodes
        added_edges = delta.added_edges
        removed_edges = delta.removed_edges

        if added_nodes and (added_nodes & nodes):
            raise TopologyError(
                f"delta adds nodes that are already awake: {sorted(added_nodes & nodes)[:10]}"
            )
        if removed_nodes and (removed_nodes - nodes):
            raise TopologyError(
                f"delta removes nodes that are not awake: {sorted(removed_nodes - nodes)[:10]}"
            )
        if removed_edges and (removed_edges - edges):
            raise TopologyError(
                f"delta removes edges that are not present: {sorted(removed_edges - edges)[:10]}"
            )
        if added_edges and (added_edges & edges):
            raise TopologyError(
                f"delta adds edges that are already present: {sorted(added_edges & edges)[:10]}"
            )

        new_nodes = nodes
        if added_nodes:
            new_nodes = new_nodes | added_nodes
        if removed_nodes:
            new_nodes = new_nodes - removed_nodes
        new_edges = edges
        if removed_edges:
            new_edges = new_edges - removed_edges
        if added_edges:
            new_edges = new_edges | added_edges

        adjacency = dict(self._adjacency)
        touched: Dict[NodeId, set] = {}

        def neighbours_of(v: NodeId) -> set:
            current = touched.get(v)
            if current is None:
                current = set(adjacency.get(v, ()))
                touched[v] = current
            return current

        for u, v in removed_edges:
            neighbours_of(u).discard(v)
            neighbours_of(v).discard(u)
        for v in added_nodes:
            touched.setdefault(v, set())
        for u, v in added_edges:
            if u not in new_nodes or v not in new_nodes:
                raise TopologyError(
                    f"delta edge {(u, v)} references a node outside the awake node set"
                )
            neighbours_of(u).add(v)
            neighbours_of(v).add(u)
        for v in removed_nodes:
            remaining = touched.pop(v, None)
            if remaining is None:
                remaining = adjacency.get(v, ())
            if remaining:
                raise TopologyError(
                    f"delta removes node {v} while it still has incident edges"
                )
            adjacency.pop(v, None)
        for v, neighbours in touched.items():
            adjacency[v] = frozenset(neighbours)

        successor = Topology.__new__(Topology)
        successor._nodes = new_nodes
        successor._edges = new_edges
        successor._adjacency = adjacency
        successor._hash = None
        successor._sorted_edges = None
        return successor

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self._edges))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(n={self.num_nodes}, m={self.num_edges})"

    def __deepcopy__(self, memo: dict) -> "Topology":
        # Immutable, so a copy is the object itself.  A rebuilt frozenset may
        # iterate in another order, and rows can see the order.
        return self

    def iterates_like(self, other: "Topology") -> bool:
        """Whether ``other`` equals this topology and iterates like it.

        Compares the order of the nodes, the edges and every neighbour set:
        a set's order depends on how it was built, and rows can see it.
        """
        return (
            list(self._nodes) == list(other._nodes)
            and list(self._edges) == list(other._edges)
            and all(
                list(neigh) == list(other._adjacency.get(v, ()))
                for v, neigh in self._adjacency.items()
            )
        )

    def restricted_equals(self, other: "Topology", nodes: AbstractSet[NodeId]) -> bool:
        """Whether this topology and ``other`` agree on the subgraph induced by ``nodes``.

        This is the predicate ``G_l[N^α(v)] = G_{l'}[N^α(v)]`` used by the
        locally-static guarantees (Definition 3.3, B.2).
        """
        keep = frozenset(nodes)
        if (self._nodes & keep) != (other._nodes & keep):
            return False
        return self.induced_edges(keep) == other.induced_edges(keep)

    # -- conversions ------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Convert to a :class:`networkx.Graph` (for analysis / plotting)."""
        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self._edges)
        return g


def empty_topology(nodes: Iterable[NodeId] = ()) -> Topology:
    """Return a topology with the given awake nodes and no edges."""
    return Topology(nodes, ())


def topology_from_networkx(graph: nx.Graph) -> Topology:
    """Build a :class:`Topology` from a networkx graph (node labels must be ints)."""
    return Topology(graph.nodes(), graph.edges())
