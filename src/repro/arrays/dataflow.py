"""Data-flow characterisation of a mapped design.

For a variable with dependence vector ``d`` under schedule ``T`` and space
map ``S``, successive values travel the spatial displacement ``S d`` every
``T d`` cycles.  The paper's design tables (Tables 1 and 2) are phrased in
exactly these terms: a stream *stays* (``S d = 0``), or *moves* in some
direction at speed ``|S d| / T d`` cells per cycle; two streams move "in the
same direction at different speeds" (design W2/R2) or "in opposite
directions" (design W1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from repro.deps.vectors import DependenceMatrix
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import SpaceMap


@dataclass(frozen=True)
class Flow:
    """Movement of one variable's stream through the array."""

    variable: str
    dependence: tuple[int, ...]
    displacement: tuple[int, ...]   # S d
    period: int                     # T d (cycles between successive uses)

    @property
    def stays(self) -> bool:
        return all(v == 0 for v in self.displacement)

    @property
    def direction(self) -> tuple[int, ...]:
        """Primitive direction vector (displacement / gcd), zero if staying."""
        if self.stays:
            return tuple([0] * len(self.displacement))
        g = 0
        for v in self.displacement:
            g = gcd(g, abs(v))
        return tuple(v // g for v in self.displacement)

    @property
    def speed(self) -> Fraction:
        """Cells advanced per cycle along the direction vector."""
        if self.stays:
            return Fraction(0)
        g = 0
        for v in self.displacement:
            g = gcd(g, abs(v))
        return Fraction(g, self.period)

    def describe(self) -> str:
        if self.stays:
            return "stays"
        return f"moves {self.direction} at speed {self.speed}"

    def __repr__(self) -> str:
        return f"Flow({self.variable}: {self.describe()})"


def variable_flows(deps: DependenceMatrix, schedule: LinearSchedule,
                   space: SpaceMap) -> dict[str, Flow]:
    """One :class:`Flow` per variable of the module.

    A variable with several dependence vectors (rare in the paper's systems)
    gets the flow of its first column; all flows are available through
    :func:`all_flows`.
    """
    out: dict[str, Flow] = {}
    for f in all_flows(deps, schedule, space):
        out.setdefault(f.variable, f)
    return out


def all_flows(deps: DependenceMatrix, schedule: LinearSchedule,
              space: SpaceMap) -> list[Flow]:
    flows = []
    for v in deps.vectors:
        flows.append(Flow(
            variable=v.variable,
            dependence=v.vector,
            displacement=space.of_vector(v.vector),
            period=schedule.of_vector(v.vector)))
    return flows
