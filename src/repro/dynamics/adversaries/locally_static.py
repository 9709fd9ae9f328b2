"""Adversary that keeps a region of the graph static while churning elsewhere.

Used by experiment E5 (Theorem 1.1, part 2 and the "locally static" clauses of
Corollaries 1.2 / 1.3): if the α-neighbourhood of a node is static during an
interval, the node's output must not change after ``r + T1 + T2`` rounds.

The protected region is the radius-``protected_radius`` ball around ``center``
in the base topology.  All edges incident to a protected node are frozen to
their base state and the churn process is prevented from adding or removing
any edge that touches the protected set.  Consequently, for every node within
distance ``protected_radius - alpha`` of the centre, the α-neighbourhood is
static for the entire run.
"""

from __future__ import annotations

from typing import FrozenSet

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Edge
from repro.utils.validation import check_non_negative_int
from repro.dynamics.adversary import Adversary, AdversaryView, FULLY_OBLIVIOUS
from repro.dynamics.churn import ChurnProcess, advance_churn
from repro.dynamics.topology import Topology, TopologyDelta

__all__ = ["LocallyStaticAdversary"]


class LocallyStaticAdversary(Adversary):
    """Freeze a ball around ``center``; churn every edge outside it.

    Parameters
    ----------
    base:
        The base topology (also defines the awake node set — all awake).
    center:
        Centre node of the protected region.
    protected_radius:
        Radius of the protected ball (in the base topology).  To guarantee a
        static α-neighbourhood for the centre itself, pass
        ``protected_radius >= alpha`` (the centre's α-ball is then entirely
        inside the protected set and no incident edge ever changes).
    churn:
        Churn process applied to the edges outside the protected region.
        Only edges with **both** endpoints outside the protected set follow
        the churn process; all other base edges are always present and no
        new edge incident to the protected set is ever added.
    rng:
        Randomness source for the churn process.
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(
        self,
        base: Topology,
        center: int,
        protected_radius: int,
        churn: ChurnProcess,
        rng: np.random.Generator,
    ) -> None:
        center = check_non_negative_int("center", center)
        if center not in base.nodes:
            raise ConfigurationError(f"center {center} is not a node of the base topology")
        protected_radius = check_non_negative_int("protected_radius", protected_radius)
        self._base = base
        self._center = center
        self._protected = base.ball(center, protected_radius)
        self._frozen_edges = frozenset(
            e for e in base.edges if e[0] in self._protected or e[1] in self._protected
        )
        self._churn = churn
        self._rng = rng
        #: Churn-level present edges (protected and unprotected alike).
        self._present: FrozenSet[Edge] = frozenset()

    @property
    def protected_nodes(self) -> frozenset:
        """The node set whose incident edges never change."""
        return self._protected

    def reset(self) -> None:
        self._churn.reset()
        self._present = frozenset()

    def _outside(self, e: Edge) -> bool:
        return e[0] not in self._protected and e[1] not in self._protected

    def step(self, view: AdversaryView) -> TopologyDelta:
        added, removed, self._present = advance_churn(
            self._churn, self._present, view.round_index, self._rng
        )
        # The frozen edges all touch the protected set, so churn changes to
        # edges outside it never collide with them; only those changes are
        # visible in the emitted graph.
        added = frozenset(e for e in added if self._outside(e))
        if view.round_index == 1:
            # G_0 is empty: every node and every frozen edge arrives now.
            return TopologyDelta(
                added_nodes=self._base.nodes, added_edges=self._frozen_edges | added
            )
        return TopologyDelta(
            added_edges=added,
            removed_edges=frozenset(e for e in removed if self._outside(e)),
        )

    def describe(self) -> str:
        return (
            f"LocallyStaticAdversary(center={self._center}, "
            f"protected={len(self._protected)} nodes)"
        )
