"""Solution-quality yardsticks.

The paper's guarantees are about feasibility and stability, not optimality,
but a reproduction should still show that the produced solutions are sensible:
the number of colours stays near the (degree+1) bound of a sequential greedy,
and the MIS is comparable in size to a greedy MIS.  These helpers compute
those comparisons for the experiment reports.
"""

from __future__ import annotations

from typing import Dict

from repro.types import Assignment
from repro.dynamics.topology import Topology
from repro.problems.coloring import num_colors_used
from repro.algorithms.coloring.greedy import greedy_coloring
from repro.algorithms.mis.greedy import greedy_mis

__all__ = ["coloring_quality", "mis_quality"]


def coloring_quality(graph: Topology, assignment: Assignment) -> Dict[str, float]:
    """Colour-count statistics compared against a sequential greedy colouring."""
    greedy = greedy_coloring(graph)
    max_degree = max((graph.degree(v) for v in graph.nodes), default=0)
    colored = [value for value in assignment.values() if value is not None]
    return {
        "colors_used": float(num_colors_used(assignment)),
        "greedy_colors": float(num_colors_used(greedy)),
        "max_color": float(max(colored)) if colored else 0.0,
        "max_degree_plus_one": float(max_degree + 1),
        "uncolored": float(sum(1 for v in graph.nodes if assignment.get(v) is None)),
    }


def mis_quality(graph: Topology, assignment: Assignment) -> Dict[str, float]:
    """MIS-size statistics compared against a sequential greedy MIS."""
    members = sum(1 for v in graph.nodes if assignment.get(v) == 1)
    greedy = greedy_mis(graph)
    return {
        "mis_size": float(members),
        "greedy_size": float(len(greedy)),
        "undecided": float(sum(1 for v in graph.nodes if assignment.get(v) is None)),
        "nodes": float(graph.num_nodes),
    }
