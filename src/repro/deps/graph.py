"""Dependence graphs over concrete index points.

The canonic form "does not explicitly specify any ordering among the
computations; ... an implicit partial ordering is given by the data
dependencies" (Section II.A).  This module materialises that partial order
``>_D`` as a DAG over lattice points so we can compute levels (the fastest
possible schedule) and critical paths (a lower bound on any linear
schedule's makespan).
"""

from __future__ import annotations

from typing import Mapping

from repro.util.lazyimport import lazy_import

nx = lazy_import("networkx")

from repro.deps.vectors import DependenceMatrix
from repro.ir.indexset import Polyhedron


def dependence_dag(domain: Polyhedron, deps: DependenceMatrix,
                   params: Mapping[str, int]) -> nx.DiGraph:
    """DAG with an edge ``p - d -> p`` for every point ``p`` and dependence
    ``d`` whose source lies in the domain."""
    g = nx.DiGraph()
    points = list(domain.points(params))
    point_set = set(points)
    g.add_nodes_from(points)
    for p in points:
        for dv in deps.vectors:
            src = tuple(a - b for a, b in zip(p, dv.vector))
            if src in point_set:
                g.add_edge(src, p, variable=dv.variable)
    if not nx.is_directed_acyclic_graph(g):
        raise ValueError("dependence relation is cyclic; no schedule exists")
    return g


def levels(g: nx.DiGraph) -> dict:
    """Longest-path level of each node (level 0 = no predecessors).

    The level of a node is the earliest time it could execute on unlimited
    hardware; ``max(levels) + 1`` is the data-flow-limited completion time.
    """
    out: dict = {}
    for node in nx.topological_sort(g):
        preds = list(g.predecessors(node))
        out[node] = 0 if not preds else 1 + max(out[p] for p in preds)
    return out


def critical_path_length(g: nx.DiGraph) -> int:
    """Length (in edges) of the longest dependence chain."""
    lv = levels(g)
    return max(lv.values(), default=0)

