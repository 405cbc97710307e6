"""Interval shortest path — the paper's second dynamic-programming example.

Recurrence (8) with ``f = +`` and ``h = min`` computes, for a layered/interval
graph whose direct hops are the seeds ``c_{i,i+1}``, the cheapest monotone
route from ``i`` to ``j`` that may stop at any intermediate station ``k``
(``c_{i,j} = min_{i<k<j} (c_{i,k} + c_{k,j})`` relaxes every split).

With arbitrary extra "express" edges the same recurrence applies as long as
seeds encode single-hop costs; this module also provides a generator of
random instances plus a Dijkstra-free closed-form check via the reference
DP table.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.ir.ops import MIN, MIN_PLUS
from repro.ir.program import HighLevelSpec, RecurrenceSystem
from repro.problems.dynamic_programming import dp_inputs, dp_spec, dp_system
from repro.reference.dp import min_plus_dp


def shortest_path_spec() -> HighLevelSpec:
    """Recurrence (8) with min-plus semantics."""
    return dp_spec(MIN_PLUS, MIN)


def shortest_path_system() -> RecurrenceSystem:
    return dp_system(MIN_PLUS, MIN)


def shortest_path_inputs(hop_costs: Sequence[float]) -> dict[str, Callable]:
    """Seeds from the ``n - 1`` single-hop costs ``c_{i,i+1}``."""
    return dp_inputs(list(hop_costs))


def random_instance(n: int, seed: int = 0,
                    lo: int = 1, hi: int = 20) -> list[int]:
    """Random hop costs for an ``n``-station line."""
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n - 1)]


def reference_distances(hop_costs: Sequence[float], n: int):
    """Golden model: the min-plus DP table."""
    return min_plus_dp(list(hop_costs), n)
