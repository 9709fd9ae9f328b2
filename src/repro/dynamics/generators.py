"""Static base-topology generators.

These produce the "substrate" graphs that churn models and adversaries then
animate.  All generators take an explicit :class:`numpy.random.Generator` (or
none for deterministic families) and return a
:class:`~repro.dynamics.topology.Topology` over the node ids ``0 … n-1``.

The families cover the settings the paper motivates (wireless/ad-hoc networks
→ random geometric graphs; overlay / peer-to-peer networks → Gnp, power-law;
structured testbeds → rings, paths, grids, tori, cliques, stars).  The names a
scenario can select are registered in :mod:`repro.scenarios.components`; the
plain functions here also serve as test fixtures.

:func:`gnp` builds no networkx graph: it replays networkx's own draws for
``fast_gnp_random_graph`` straight into int64 edge arrays and hands them to
:meth:`Topology.from_arrays`, so its graphs are networkx's, edge for edge and
in iteration order.  Only :func:`barabasi_albert` still goes through networkx.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import FrozenSet, Tuple

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.types import Edge
from repro.utils.validation import check_positive, check_positive_int, check_probability
from repro.dynamics.topology import Topology, topology_from_networkx

__all__ = [
    "gnp",
    "gnp_edge_arrays",
    "random_geometric",
    "barabasi_albert",
    "ring",
    "path",
    "star",
    "clique",
    "grid",
    "torus",
    "empty",
]


def _require_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"n must be a positive integer, got {n!r}")
    return n


def empty(n: int) -> Topology:
    """``n`` awake nodes, no edges."""
    return Topology(range(_require_n(n)), ())


def gnp(n: int, p: float, rng: np.random.Generator) -> Topology:
    """Erdős–Rényi ``G(n, p)`` graph, equal to ``nx.fast_gnp_random_graph``'s.

    No networkx graph is built.  The edges come from :func:`gnp_edge_arrays`,
    which makes networkx's draws on the same seed, and the topology equals
    ``topology_from_networkx(nx.fast_gnp_random_graph(n, p, seed))`` in
    content and iteration order (the ``gnp-networkx-identity`` contract of
    ``repro verify`` checks it).  A ``p`` so small that ``1 - p`` rounds to 1
    gives the edgeless graph, the limit of an infinite skip, where networkx
    divides by zero.
    """
    _require_n(n)
    check_probability("p", p)
    seed = int(rng.integers(0, 2**31 - 1))
    u, v = gnp_edge_arrays(n, p, seed)
    return Topology.from_arrays(range(n), u, v)


def gnp_edge_arrays(n: int, p: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``(u, v)``, ``u < v``, of networkx's ``G(n, p)`` on ``seed``, sorted.

    Replays ``nx.fast_gnp_random_graph`` (Batagelj–Brandes): one
    ``random.Random(seed).random()`` draw per geometric skip, the skip
    ``1 + int(math.log(1.0 - r) / math.log(1.0 - p))`` over the linear index
    of the pairs ``(w, v)``, ``w < v``, ordered by ``v`` then ``w``.  The
    logarithm is libm's ``math.log``: ``np.log`` may round differently.
    ``p >= 1`` gives every pair, as ``nx.complete_graph`` does.
    """
    if p >= 1.0:
        u, v = np.triu_indices(n, 1)
        return u.astype(np.int64), v.astype(np.int64)
    lp = math.log(1.0 - p)
    if lp == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    total = n * (n - 1) // 2
    rand = random.Random(seed).random
    log = math.log
    picks = []
    append = picks.append
    index = -1
    while True:
        index += 1 + int(log(1.0 - rand()) / lp)
        if index >= total:
            break
        append(index)
    index = np.array(picks, dtype=np.int64)
    # index = v (v - 1) / 2 + w with 0 <= w < v: invert with a float sqrt,
    # then fix the at most one-off floor with exact integer arithmetic.
    v = ((1.0 + np.sqrt(1.0 + 8.0 * index)) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > index
    v += (v + 1) * v // 2 <= index
    w = index - v * (v - 1) // 2
    # networkx's G.edges() lists the pairs by w, then v: the order in which
    # topology_from_networkx inserted them, and the one from_arrays replays.
    order = np.lexsort((v, w))
    return w[order], v[order]


def random_geometric(n: int, radius: float, rng: np.random.Generator) -> Topology:
    """Random geometric graph on the unit square with connection ``radius``."""
    _require_n(n)
    check_positive("radius", radius)
    positions = rng.random((n, 2))
    return geometric_from_positions(positions, radius)


def geometric_edges_from_positions(positions: np.ndarray, radius: float) -> FrozenSet[Edge]:
    """The canonical edge set connecting every pair within distance ``radius``.

    Shared by :func:`geometric_from_positions` and the mobility model's delta
    path (which only needs the edge set, not a full topology).
    """
    n = positions.shape[0]
    edges = []
    r2 = float(radius) ** 2
    # O(n^2) pair scan; fine for the experiment scales (n <= a few thousand).
    diffs_x = positions[:, 0]
    diffs_y = positions[:, 1]
    for u in range(n):
        dx = diffs_x[u + 1 :] - diffs_x[u]
        dy = diffs_y[u + 1 :] - diffs_y[u]
        close = np.nonzero(dx * dx + dy * dy <= r2)[0]
        for offset in close:
            edges.append((u, u + 1 + int(offset)))
    return frozenset(edges)


def geometric_from_positions(positions: np.ndarray, radius: float) -> Topology:
    """Connect every pair of points within Euclidean distance ``radius``.

    Shared by :func:`random_geometric` and the mobility model so both produce
    identical graphs for identical positions.
    """
    return Topology(range(positions.shape[0]), geometric_edges_from_positions(positions, radius))


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> Topology:
    """Barabási–Albert preferential-attachment graph with ``m`` edges per new node."""
    _require_n(n)
    if check_positive_int("m", m) >= n:
        raise ConfigurationError(f"m must be in [1, n), got {m}")
    seed = int(rng.integers(0, 2**31 - 1))
    return topology_from_networkx(nx.barabasi_albert_graph(n, m, seed=seed))


def ring(n: int) -> Topology:
    """Cycle ``C_n`` (a single node gives an isolated node, two nodes a single edge)."""
    _require_n(n)
    if n == 1:
        return empty(1)
    if n == 2:
        return Topology(range(2), [(0, 1)])
    return Topology(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Topology:
    """Path ``P_n``."""
    _require_n(n)
    return Topology(range(n), [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Topology:
    """Star with centre 0 and ``n - 1`` leaves."""
    _require_n(n)
    return Topology(range(n), [(0, i) for i in range(1, n)])


def clique(n: int) -> Topology:
    """Complete graph ``K_n``."""
    _require_n(n)
    return Topology(range(n), itertools.combinations(range(n), 2))


def grid(rows: int, cols: int) -> Topology:
    """``rows × cols`` grid; node ``(i, j)`` has id ``i * cols + j``."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Topology(range(rows * cols), edges)


def torus(rows: int, cols: int) -> Topology:
    """``rows × cols`` torus (grid with wrap-around edges)."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            right = i * cols + (j + 1) % cols
            down = ((i + 1) % rows) * cols + j
            if right != v:
                edges.add((v, right))
            if down != v:
                edges.add((v, down))
    return Topology(range(rows * cols), edges)
